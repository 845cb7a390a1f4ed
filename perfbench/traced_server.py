"""``recoil`` with the server-side layer spans installed.

Usage: ``python perfbench/traced_server.py serve ... --trace``.  It
wraps the layers' public functions in ``repro.trace`` spans (see
``layers.py``) and then runs ``repro.cli`` with the given arguments,
so the traced server is the stock server plus those spans.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from layers import install_server_spans  # noqa: E402

from repro import cli  # noqa: E402

if __name__ == "__main__":
    install_server_spans()
    raise SystemExit(cli.main(sys.argv[1:]))
