"""Open-loop tail-latency harness: ``BENCH_latency.json``.

Drives the network front-end (``repro.serve.net``) with the open-loop
load generator (``repro.serve.loadgen``): Poisson arrivals at a fixed
offered rate, Zipf asset popularity, mixed client capacities, and
hostile personas (slow readers, kill -9'd clients) — once clean and
once under a ``net.*`` + ``kernel.exec`` chaos spec, side by side.
Latency is measured from each request's *scheduled* arrival, so server
queueing counts against the tail (no coordinated omission — see
docs/BENCHMARKS.md).  Every verified response in both runs must be
bit-identical to the stored symbols or the harness raises.

The JSON this emits is the latency trajectory future PRs regress
against; CI runs a short clean smoke and gates on p99 + zero protocol
errors.  Usage::

    python benchmarks/bench_latency.py [--symbols 50000] [--rate 100]
        [--duration 2.0] [--kernel compiled] [--faults SPEC|none]
        [--trace trace.json] [--out BENCH_latency.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.parallel.compiled import KERNELS
from repro.serve.loadgen import render_load_table, run_load_bench
from repro.serve.service import ServiceConfig

#: default chaos spec for the faulted run: all four net.* points plus
#: a failed kernel call.
DEFAULT_FAULTS = (
    "net.accept:p=0.05,net.read:p=0.05,net.write:p=0.05,"
    "net.stall:p=0.1,kernel.exec:nth=2"
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=50_000)
    ap.add_argument("--assets", type=int, default=4)
    ap.add_argument("--splits", type=int, default=64)
    ap.add_argument("--rate", type=float, default=100.0,
                    help="offered request rate (Poisson arrivals, Hz)")
    ap.add_argument("--duration", type=float, default=2.0,
                    help="open-loop run length (s) per condition")
    ap.add_argument("--kernel", default=ServiceConfig.decode_kernel,
                    choices=KERNELS)
    ap.add_argument("--faults", default=DEFAULT_FAULTS,
                    help="chaos spec for the faulted run; 'none' skips it")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="also write a Perfetto-loadable Chrome trace "
                    "of the run (spans from accept to kernel to write)")
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "BENCH_latency.json"),
    )
    args = ap.parse_args(argv)

    faults = None if args.faults in (None, "", "none") else args.faults

    result = run_load_bench(
        symbols=args.symbols,
        num_assets=args.assets,
        num_splits=args.splits,
        rate_hz=args.rate,
        duration_s=args.duration,
        kernel=args.kernel,
        faults=faults,
        seed=args.seed,
        trace_path=args.trace,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(render_load_table(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
