"""multians decode-throughput harness: ``BENCH_multians.json``.

Measures wall-clock symbols/second of the self-synchronizing tANS
baseline on the Figure 7 GPU-panel workload (entropy-matched enwik8
surrogate, n=11 -> 2**12 states, 256 decoder threads):

- ``seed``  — ``MultiansCodec.parallel_decode_reference``: the seed
  commit's pipeline (per-thread window mat-vec speculative pass, dict
  position maps, per-bit stitch loops), kept in-tree as the
  differential twin;
- ``fused`` — ``MultiansCodec.parallel_decode``: the fused wide-lane
  kernel (``repro.tans.fused``) — one ``(P,)``-wide state vector per
  step, 24-bit window gathers, wide synchronization search, array
  stitch.

Both paths are verified bit-identical (symbols *and* overlap stats)
before timing.  The collapse point (2**16 states, where chunks stop
synchronizing and multians degrades by design) and the single-stream
serial decode are reported alongside; ``speedup_fused_vs_seed`` is
the tracked headline.  CI runs this in smoke mode.  Usage::

    python benchmarks/bench_multians.py [--symbols 300000]
        [--repeats 3] [--threads 256] [--out BENCH_multians.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.data import text_surrogate
from repro.tans import MultiansCodec, TansDecoder, TansEncoder, TansTable

ENTROPY = 5.29  # enwik8 surrogate, Table 4
THREADS = 256  # figure7's GPU-panel thread count


def _rate(fn, n_symbols, repeats: int) -> float:
    """Best-of-N symbols/second for ``fn``."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n_symbols / best


def _verify(codec, enc, table, threads, data) -> None:
    out_f, st_f = codec.parallel_decode(enc, table, threads)
    out_r, st_r = codec.parallel_decode_reference(enc, table, threads)
    if not np.array_equal(out_f, data):
        raise AssertionError("fused multians decode is wrong")
    if not np.array_equal(out_f, out_r):
        raise AssertionError("fused and seed decodes disagree")
    if not np.array_equal(st_f.overlap_symbols, st_r.overlap_symbols):
        raise AssertionError("fused and seed overlap stats disagree")
    if st_f.unsynced_threads != st_r.unsynced_threads:
        raise AssertionError("fused and seed unsynced counts disagree")


def run(symbols: int, repeats: int, threads: int) -> dict:
    data = text_surrogate(symbols, target_entropy=ENTROPY, seed=77)
    N = len(data)
    result: dict = {
        "workload": "figure7-gpu-panel (enwik8 surrogate)",
        "symbols": N,
        "threads": threads,
        "entropy_bits": ENTROPY,
        "verified_bit_identical": True,
    }

    for table_bits, key in ((12, "sync"), (16, "collapse")):
        table = TansTable.from_data(data, table_bits, alphabet_size=256)
        codec = MultiansCodec(table)
        enc, _ = codec.parse(codec.compress(data))
        _verify(codec, enc, table, threads, data)
        fused = _rate(
            lambda: codec.parallel_decode(enc, table, threads), N, repeats
        )
        seed = _rate(
            lambda: codec.parallel_decode_reference(enc, table, threads),
            N, repeats,
        )
        _, stats = codec.parallel_decode(enc, table, threads)
        result[key] = {
            "table_bits": table_bits,
            "fused_sym_per_s": round(fused),
            "seed_sym_per_s": round(seed),
            "speedup": round(fused / seed, 2),
            "unsynced_threads": stats.unsynced_threads,
            "total_overlap_symbols": stats.total_overlap,
        }

    # Single-stream serial decode: the staged-trajectory sweep vs the
    # seed per-symbol loop (dependency-bound, so gains are modest).
    table = TansTable.from_data(data, 12, alphabet_size=256)
    enc1 = TansEncoder(table).encode(data)
    dec = TansDecoder(table)
    if not np.array_equal(dec.decode(enc1), data):
        raise AssertionError("staged single-stream decode is wrong")
    staged = _rate(lambda: dec.decode(enc1), N, repeats)
    seed1 = _rate(lambda: dec.decode_reference(enc1), N, repeats)
    result["single_stream"] = {
        "staged_sym_per_s": round(staged),
        "seed_sym_per_s": round(seed1),
        "speedup": round(staged / seed1, 2),
    }

    result["speedup_fused_vs_seed"] = result["sync"]["speedup"]
    result["speedup_fused_vs_seed_collapse"] = result["collapse"]["speedup"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--symbols", type=int, default=300_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--threads", type=int, default=THREADS)
    parser.add_argument("--out", default="BENCH_multians.json")
    args = parser.parse_args(argv)

    result = run(args.symbols, args.repeats, args.threads)
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(
        f"\nfused vs seed multians decode at {result['threads']} threads: "
        f"{result['speedup_fused_vs_seed']}x (sync), "
        f"{result['speedup_fused_vs_seed_collapse']}x (collapse)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
