"""Serving-throughput trajectory harness: ``BENCH_serve.json``.

Measures end-to-end multi-client decode throughput of the
content-delivery service (``repro.serve``) at 1/8/64 concurrent
clients of mixed capacities, batched (cross-request fusion into one
wide-lane kernel per geometry group) vs. unbatched (the same service
on the same kernel with ``batching=False``: one request per kernel
call).  All responses are verified bit-identical to
``recoil_decompress`` before timing.  Both services run the numpy
kernel, where fusion is what the CI gate measures: on a host with a C
compiler the harness acts as a host without one (``numpy_host``,
docs/BENCHMARKS.md).  ``recoil serve-bench`` measures the host's own
kernel.

The JSON this emits is the serving perf trajectory future PRs regress
against; CI runs it in smoke mode and gates on
``speedup_batched_vs_unbatched_max_clients``.  Usage::

    python benchmarks/bench_serve.py [--symbols 200000]
        [--clients 1 8 64] [--repeats 5] [--out BENCH_serve.json]

Each level times the two services in ``--repeats`` alternating rounds
and reports their median throughput with quartiles
(``*_mb_s_q1_q3``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.serve.bench import render_table, run_serve_bench

from numpy_host import numpy_host


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=200_000)
    ap.add_argument("--clients", type=int, nargs="+", default=[1, 8, 64])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "BENCH_serve.json"),
    )
    args = ap.parse_args(argv)

    with numpy_host():
        result = run_serve_bench(
            symbols=args.symbols,
            clients=tuple(args.clients),
            repeats=args.repeats,
        )
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(render_table(result))
    print(json.dumps(result["clients"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
