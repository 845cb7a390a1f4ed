"""Serving-throughput trajectory harness: ``BENCH_serve.json``.

Measures end-to-end multi-client decode throughput of the
content-delivery service (``repro.serve``) at 1/8/64 concurrent
clients of mixed capacities, batched (cross-request fusion into one
wide-lane kernel per geometry group) vs. unbatched (the same service
on the same kernel with ``batching=False``: one request per kernel
call).  All responses are verified bit-identical to
``recoil_decompress`` before timing.  The kernel defaults to numpy,
where fusion is what the CI gate measures; ``--kernel compiled``
measures the served default.

The JSON this emits is the serving perf trajectory future PRs regress
against; CI runs it in smoke mode and gates on
``speedup_batched_vs_unbatched_max_clients``.  Usage::

    python benchmarks/bench_serve.py [--symbols 200000]
        [--clients 1 8 64] [--repeats 2] [--kernel numpy]
        [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.parallel.compiled import KERNELS
from repro.serve.bench import render_table, run_serve_bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=200_000)
    ap.add_argument("--clients", type=int, nargs="+", default=[1, 8, 64])
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--kernel", default="numpy", choices=KERNELS,
                    help="decode kernel both services run on")
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "BENCH_serve.json"),
    )
    args = ap.parse_args(argv)

    result = run_serve_bench(
        symbols=args.symbols,
        clients=tuple(args.clients),
        repeats=args.repeats,
        kernel=args.kernel,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(render_table(result))
    print(json.dumps(result["clients"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
