"""Decode-throughput trajectory harness: ``BENCH_decode.json``.

Measures wall-clock symbols/second of every decoder tier on the
Figure 7 CPU workload (entropy-matched enwik8 surrogate, n=11, K=32):

- ``scalar``       — the single-state pure-Python reference decoder;
- ``interleaved``  — one 32-lane coder, full-stream decode (fused);
- ``pooled``       — 8 recoil tasks on 8 real threads (fused engines);
- ``fused``        — 8 recoil tasks, one fused wide-lane kernel;
- ``seed_engine``  — the same 8 tasks on the pre-fusion reference
  engine (``LaneEngine.run_reference``), i.e. the seed hot path.

The ``thread_pool`` section times ``decode_with_pool`` on each kernel
at 1..``host_cpus`` worker threads over 16 and 64 splits of its own
``POOL_SYMBOLS``-symbol input: the median and quartiles of
``POOL_ROUNDS`` alternating rounds (the config order reverses every
round), every output verified (docs/BENCHMARKS.md).

The ``compiled`` section re-times the fused decode on the compiled C
walk (DESIGN.md §19) when a C compiler is present; the section always
records ``available``/``toolchain``/``host_cpus`` so a fallback run
is visible in the JSON.

The JSON this emits is the perf trajectory future PRs regress
against; CI runs it in smoke mode.  Usage::

    python benchmarks/bench_fused.py [--symbols 300000] [--threads 8]
        [--repeats 3] [--out BENCH_decode.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import time

import numpy as np

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.rans.adaptive import StaticModelProvider
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel
from repro.rans.scalar import ScalarDecoder, ScalarEncoder

QUANT_BITS = 11
LANES = 32
SCALAR_CAP = 30_000  # the pure-Python decoder is ~1000x slower
POOL_SPLITS = (16, 64)
POOL_ROUNDS = 9
#: large enough that a pool call's fixed cost (thread start, the
#: GIL-held task setup) stays small next to the decode itself.
POOL_SYMBOLS = 2_000_000


def _rate(fn, check, repeats: int) -> float:
    """Best-of-N symbols/second for ``fn() -> symbol array``."""
    out = fn()
    check(out)  # correctness before speed
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return len(out) / best


def _thread_pool() -> dict:
    """``decode_with_pool`` on each kernel x 1..host_cpus workers x
    ``POOL_SPLITS`` splits: median and quartiles of symbols/second over
    ``POOL_ROUNDS`` alternating rounds, every output verified."""
    host_cpus = os.cpu_count() or 1
    data = text_surrogate(POOL_SYMBOLS, target_entropy=5.29, seed=77)
    provider = StaticModelProvider(
        SymbolModel.from_data(data, QUANT_BITS, alphabet_size=256)
    )
    enc = RecoilEncoder(provider, LANES).encode(
        data, num_threads=max(POOL_SPLITS)
    )
    plans = {
        splits: build_thread_tasks(
            enc.metadata.combine(splits), len(enc.words), enc.final_states
        )
        for splits in POOL_SPLITS
    }
    kernels = ["numpy"]
    if compiled.kernel_available():
        compiled.warm_up()
        kernels.append("compiled")
    configs = [
        (kernel, splits, workers)
        for kernel in kernels
        for splits in POOL_SPLITS
        for workers in range(1, host_cpus + 1)
    ]

    def rate(config) -> float:
        kernel, splits, workers = config
        t0 = time.perf_counter()
        res = decode_with_pool(
            provider, LANES, enc.words, plans[splits], enc.num_symbols,
            np.uint8, workers, kernel=kernel,
        )
        elapsed = time.perf_counter() - t0
        if res.kernel != kernel or not np.array_equal(res.symbols, data):
            raise AssertionError(f"thread-pool decode mismatch at {config}")
        return len(data) / elapsed

    for config in configs:  # warm-up, and correctness before speed
        rate(config)
    samples: dict[tuple, list[float]] = {c: [] for c in configs}
    for r in range(POOL_ROUNDS):
        for config in configs if r % 2 == 0 else configs[::-1]:
            samples[config].append(rate(config))
    rows = []
    for (kernel, splits, workers), rates in samples.items():
        q1, median, q3 = statistics.quantiles(rates, n=4)
        rows.append({
            "kernel": kernel,
            "splits": splits,
            "workers": workers,
            "median": round(median, 1),
            "q1": round(q1, 1),
            "q3": round(q3, 1),
        })
    return {
        "host_cpus": host_cpus,
        "symbols": POOL_SYMBOLS,
        "rounds": POOL_ROUNDS,
        "unit": "symbols/s",
        "rows": rows,
    }


def run(symbols: int, threads: int, repeats: int) -> dict:
    data = text_surrogate(symbols, target_entropy=5.29, seed=77)
    model = SymbolModel.from_data(data, QUANT_BITS, alphabet_size=256)
    provider = StaticModelProvider(model)

    def check(expect):
        def _check(out):
            if not np.array_equal(np.asarray(out, np.uint8), expect):
                raise AssertionError("decode mismatch in benchmark")
        return _check

    rates: dict[str, float] = {}

    # -- scalar ---------------------------------------------------------
    small = data[:SCALAR_CAP]
    s_enc = ScalarEncoder(model).encode(small)
    s_dec = ScalarDecoder(model)
    rates["scalar"] = _rate(
        lambda: s_dec.decode(s_enc.words, s_enc.final_state, len(small)),
        check(small),
        repeats,
    )

    # -- interleaved (one coder, fused full-stream decode) --------------
    i_enc = InterleavedEncoder(provider, LANES).encode(data)
    i_dec = InterleavedDecoder(provider, LANES)
    rates["interleaved"] = _rate(
        lambda: i_dec.decode(i_enc.words, i_enc.final_states, len(data)),
        check(data),
        repeats,
    )

    # -- recoil tasks at the requested thread count ---------------------
    enc = RecoilEncoder(provider, LANES).encode(
        data, num_threads=max(threads, 2)
    )
    md = enc.metadata.combine(threads)
    tasks = build_thread_tasks(md, len(enc.words), enc.final_states)
    decoder = RecoilDecoder(provider, LANES)

    rates["pooled"] = _rate(
        lambda: decode_with_pool(
            provider, LANES, enc.words, tasks, enc.num_symbols,
            np.uint8, threads,
        ).symbols,
        check(data),
        repeats,
    )
    rates["fused"] = _rate(
        lambda: decoder.decode(
            enc.words, enc.final_states, md, engine="fused"
        ).symbols,
        check(data),
        repeats,
    )
    rates["seed_engine"] = _rate(
        lambda: decoder.decode(
            enc.words, enc.final_states, md, engine="reference"
        ).symbols,
        check(data),
        repeats,
    )

    # -- decoder-adaptive sweep: the Figure 7 "wider ⇒ faster" curve ----
    wide = RecoilEncoder(provider, LANES).encode(data, num_threads=32)
    sweep: dict[str, dict[str, float]] = {}
    for t in (1, 8, 16, 32):
        md_t = wide.metadata.combine(t)
        sweep[str(t)] = {
            "fused": round(_rate(
                lambda: decoder.decode(
                    wide.words, wide.final_states, md_t, engine="fused"
                ).symbols,
                check(data),
                max(repeats - 1, 1),
            ), 1),
            "seed_engine": round(_rate(
                lambda: decoder.decode(
                    wide.words, wide.final_states, md_t,
                    engine="reference",
                ).symbols,
                check(data),
                max(repeats - 1, 1),
            ), 1),
        }

    thread_pool = _thread_pool()

    # -- compiled kernel column (DESIGN.md §19) -------------------------
    # Same fused decode, whole walk on the compiled kernel.  Warm-up
    # happens before timing; the compile-event counter must stay
    # frozen across the timed region or the measurement is invalid.
    compiled_col: dict = {
        "available": compiled.kernel_available(),
        "toolchain": compiled.toolchain(),
        "host_cpus": os.cpu_count(),
    }
    if compiled.kernel_available():
        compiled.warm_up()
        events = compiled.compile_events()
        compiled_rate = _rate(
            lambda: decoder.decode(
                enc.words, enc.final_states, md, engine="compiled"
            ).symbols,
            check(data),
            repeats,
        )
        if compiled.compile_events() != events:
            raise AssertionError("compile landed inside a timed region")
        compiled_col["symbols_per_sec"] = {
            "numpy": round(rates["fused"], 1),
            "compiled": round(compiled_rate, 1),
        }
        compiled_col["speedup_compiled_vs_numpy"] = round(
            compiled_rate / rates["fused"], 3
        )

    return {
        "workload": {
            "dataset": "enwik8-surrogate (Figure 7 CPU panel)",
            "symbols": symbols,
            "quant_bits": QUANT_BITS,
            "lanes": LANES,
            "scalar_cap": SCALAR_CAP,
        },
        "threads": threads,
        "symbols_per_sec": {k: round(v, 1) for k, v in rates.items()},
        "speedup_fused_vs_seed": round(
            rates["fused"] / rates["seed_engine"], 3
        ),
        "threads_sweep_symbols_per_sec": sweep,
        "thread_pool": thread_pool,
        "compiled": compiled_col,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=300_000)
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "BENCH_decode.json"),
    )
    args = ap.parse_args(argv)

    result = run(args.symbols, args.threads, args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
