"""Timing the numpy kernels on a host that has a C compiler.

No decode or encode takes a kernel argument: every call runs the
compiled kernels where a C compiler exists and numpy where none does
(DESIGN.md §19).  A benchmark column that names the numpy kernel
therefore acts as a host without a compiler, the same way CI's
fallback leg and the tests do: ``REPRO_COMPILED_TOOLCHAIN=none`` plus
a re-detection.
"""

from __future__ import annotations

import contextlib
import os

from repro.parallel import compiled

_ENV = "REPRO_COMPILED_TOOLCHAIN"


@contextlib.contextmanager
def numpy_host():
    """Run the body as a host without a C compiler, then restore the
    host's own detection (the caller warms the compiled kernels again
    before it times them)."""
    saved = os.environ.get(_ENV)
    os.environ[_ENV] = "none"
    compiled.reset_for_tests()
    try:
        if compiled.kernel_available():
            raise AssertionError("numpy_host still runs the compiled kernel")
        yield
    finally:
        if saved is None:
            del os.environ[_ENV]
        else:
            os.environ[_ENV] = saved
        compiled.reset_for_tests()
