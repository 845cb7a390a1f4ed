"""Decode-throughput trajectory harness: ``BENCH_decode.json``.

Measures wall-clock symbols/second of every decoder tier on the
Figure 7 CPU workload (entropy-matched enwik8 surrogate, n=11, K=32):

- ``scalar``       — the single-state pure-Python reference decoder;
- ``interleaved``  — one 32-lane coder, full-stream decode (fused);
- ``fused``        — 8 recoil tasks, one fused wide-lane kernel;
- ``seed_engine``  — the same 8 tasks on the differential reference
  (``fused.reference_walk``): the kernel's own walk with every
  iteration on the masked per-group loop, the seed's hot-path shape.

Every column decodes the same ``--symbols`` input.  These columns
time the numpy kernels: on a host with a C compiler they run as a
host without one (``numpy_host``, docs/BENCHMARKS.md).  The tiers and
the decoder-adaptive sweep report the median (``q1``/``q3`` alongside)
of ``--repeats`` alternating rounds over all of them
(``repro.stats.timing.alternating_rounds``), every output verified.

The ``thread_pool`` section times ``decode_with_pool`` on each kernel
at 1..``host_cpus`` worker threads over 16 and 64 splits of its own
``POOL_SYMBOLS``-symbol input: the median and quartiles of
``POOL_ROUNDS`` alternating rounds, every output verified
(docs/BENCHMARKS.md).

The ``compiled`` section re-times the fused decode on the compiled C
walk (DESIGN.md §19), the host's own kernel, when a C compiler is
present; the section always records ``available``/``toolchain``/
``host_cpus``/``host_body`` so a fallback run is visible in the JSON.
Its ``rows`` time the same decode at n = 11, 12 and 16 on the host's
C body (``compiled``: full interleave groups on the AVX2 body where
the host has one) and on the scalar body
(``compiled_scalar``, reached through the ``packed`` argument of the
internal ``compiled.rans_walk`` call by ``tests/walk_bodies.py``, the
tests' hook), in alternating rounds, with
the share of decoded symbols that ran on the SIMD body.

The JSON this emits is the perf trajectory future PRs regress
against; CI runs it in smoke mode.  Usage::

    python benchmarks/bench_fused.py [--symbols 300000] [--threads 8]
        [--repeats 9] [--out BENCH_decode.json]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import reference_walk
from repro.rans.adaptive import StaticModelProvider
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel
from repro.rans.scalar import ScalarDecoder, ScalarEncoder
from repro.stats.timing import alternating_rounds, symbol_rate

from numpy_host import numpy_host

# The tests' one hook on the compiled walk's two bodies.
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from walk_bodies import c_walks  # noqa: E402

QUANT_BITS = 11
LANES = 32
#: quantization levels of the ``compiled`` section's rows.
COMPILED_QUANT_BITS = (11, 12, 16)
POOL_SPLITS = (16, 64)
POOL_ROUNDS = 9
#: large enough that a pool call's fixed cost (thread start, the
#: GIL-held task setup) stays small next to the decode itself.
POOL_SYMBOLS = 2_000_000
#: decoder-adaptive sweep: thread counts of one 32-split encode.
SWEEP_THREADS = (1, 8, 16, 32)


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
        kernels.append("compiled")
    configs = [
        (kernel, splits, workers)
        for kernel in kernels
        for splits in POOL_SPLITS
        for workers in range(1, host_cpus + 1)
    ]

    def rate(config) -> float:
        kernel, splits, workers = config
        host = numpy_host() if kernel == "numpy" else contextlib.nullcontext()
        with host:
            compiled.warm_up()  # outside the timed region
            events = compiled.compile_events()
            t0 = time.perf_counter()
            res = decode_with_pool(
                provider, LANES, enc.words, plans[splits], enc.num_symbols,
                np.uint8, workers,
            )
            elapsed = time.perf_counter() - t0
            if compiled.compile_events() != events:
                raise AssertionError("compile landed inside a timed region")
        if res.kernel != kernel or not np.array_equal(res.symbols, data):
            raise AssertionError(f"thread-pool decode mismatch at {config}")
        return len(data) / elapsed

    quartiles = alternating_rounds(
        {config: functools.partial(rate, config) for config in configs},
        POOL_ROUNDS,
    )
    rows = []
    for (kernel, splits, workers), (q1, median, q3) in quartiles.items():
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


def _compiled_rows(data, threads: int, rounds: int, check) -> list[dict]:
    """The fused decode of ``data`` at ``threads`` splits for each of
    :data:`COMPILED_QUANT_BITS`, on the host's C body and on the
    scalar body, in alternating rounds; ``simd_symbol_share`` is the
    share of decoded symbols (sync-phase ones included) that ran in
    SIMD groups of 32."""
    timers, rows = {}, []
    for n in COMPILED_QUANT_BITS:
        provider = StaticModelProvider(
            SymbolModel.from_data(data, n, alphabet_size=256)
        )
        enc = RecoilEncoder(provider, LANES).encode(data, num_threads=threads)
        decode = functools.partial(
            RecoilDecoder(provider, LANES).decode,
            enc.words, enc.final_states, enc.metadata,
        )
        with c_walks() as groups:
            stats = decode().engine_stats

        def scalar(decode=decode):
            with c_walks(scalar=True):
                return decode().symbols

        timers[n, "compiled"] = symbol_rate(
            lambda decode=decode: decode().symbols, check
        )
        timers[n, "compiled_scalar"] = symbol_rate(scalar, check)
        rows.append({
            "quant_bits": n,
            "packed_table": provider.decode_tables.packed is not None,
            "simd_symbol_share": round(
                32 * sum(groups) / stats.symbols_decoded, 4
            ),
        })
    events = compiled.compile_events()
    quartiles = alternating_rounds(timers, rounds)
    if compiled.compile_events() != events:
        raise AssertionError("compile landed inside a timed region")
    for row in rows:
        q = {
            body: quartiles[row["quant_bits"], body]
            for body in ("compiled", "compiled_scalar")
        }
        row["symbols_per_sec"] = {b: round(v[1], 1) for b, v in q.items()}
        row["symbols_per_sec_q1_q3"] = {
            b: [round(v[0], 1), round(v[2], 1)] for b, v in q.items()
        }
        row["speedup_host_body_vs_scalar"] = round(
            q["compiled"][1] / q["compiled_scalar"][1], 3
        )
    return rows


def run(symbols: int, threads: int, rounds: int) -> dict:
    data = text_surrogate(symbols, target_entropy=5.29, seed=77)
    model = SymbolModel.from_data(data, QUANT_BITS, alphabet_size=256)
    provider = StaticModelProvider(model)

    def check(out):
        if not np.array_equal(np.asarray(out, np.uint8), data):
            raise AssertionError("decode mismatch in benchmark")

    with numpy_host():
        timers = {}

        # -- scalar -----------------------------------------------------------
        s_enc = ScalarEncoder(model).encode(data)
        s_dec = ScalarDecoder(model)
        timers["scalar"] = symbol_rate(
            lambda: s_dec.decode(s_enc.words, s_enc.final_state, len(data)),
            check,
        )

        # -- interleaved (one coder, fused full-stream decode) ----------------
        i_enc = InterleavedEncoder(provider, LANES).encode(data)
        i_dec = InterleavedDecoder(provider, LANES)
        timers["interleaved"] = symbol_rate(
            lambda: i_dec.decode(i_enc.words, i_enc.final_states, len(data)),
            check,
        )

        # -- recoil tasks at the requested thread count -----------------------
        enc = RecoilEncoder(provider, LANES).encode(
            data, num_threads=max(threads, 2)
        )
        md = enc.metadata.combine(threads)
        decoder = RecoilDecoder(provider, LANES)

        def fused(words, states, metadata):
            return decoder.decode(words, states, metadata).symbols

        def seed_engine(words, states, metadata):
            columns = build_thread_tasks(metadata, len(words), states)
            out = np.empty(metadata.num_symbols, dtype=np.uint8)
            reference_walk(provider, LANES, words, columns, out)
            return out

        tiers = {"fused": fused, "seed_engine": seed_engine}
        for name, tier in tiers.items():
            timers[name] = symbol_rate(
                functools.partial(tier, enc.words, enc.final_states, md),
                check,
            )

        # -- decoder-adaptive sweep: the Figure 7 "wider ⇒ faster" curve ------
        wide = RecoilEncoder(provider, LANES).encode(data, num_threads=32)
        for t in SWEEP_THREADS:
            md_t = wide.metadata.combine(t)
            for name, tier in tiers.items():
                timers[(t, name)] = symbol_rate(
                    functools.partial(
                        tier, wide.words, wide.final_states, md_t
                    ),
                    check,
                )

        quartiles = alternating_rounds(timers, rounds)

    thread_pool = _thread_pool()

    # -- compiled kernel column (DESIGN.md §19) -------------------------
    # Same fused decode, whole walk on the compiled kernel, on the
    # host's C body and on the scalar body.  Warm-up happens before
    # timing; the compile-event counter must stay frozen across the
    # timed region or the measurement is invalid.
    compiled_col: dict = {
        "available": compiled.kernel_available(),
        "toolchain": compiled.toolchain(),
        "host_cpus": os.cpu_count(),
        "host_body": "avx2" if compiled.avx2_host() else "scalar",
    }
    fused_rate = quartiles["fused"][1]
    if compiled.kernel_available():
        compiled.warm_up()
        rows = _compiled_rows(data, threads, rounds, check)
        (main,) = [r for r in rows if r["quant_bits"] == QUANT_BITS]
        compiled_col["symbols_per_sec"] = {
            "numpy": round(fused_rate, 1), **main["symbols_per_sec"]
        }
        compiled_col["speedup_compiled_vs_numpy"] = round(
            main["symbols_per_sec"]["compiled"] / fused_rate, 3
        )
        compiled_col["rows"] = rows

    def median(key):
        return round(quartiles[key][1], 1)

    def q1_q3(key):
        return [round(quartiles[key][0], 1), round(quartiles[key][2], 1)]

    tier_names = [k for k in timers if isinstance(k, str)]
    return {
        "workload": {
            "dataset": "enwik8-surrogate (Figure 7 CPU panel)",
            "symbols": symbols,
            "quant_bits": QUANT_BITS,
            "lanes": LANES,
        },
        "threads": threads,
        "rounds": rounds,
        "symbols_per_sec": {k: median(k) for k in tier_names},
        "symbols_per_sec_q1_q3": {k: q1_q3(k) for k in tier_names},
        "speedup_fused_vs_seed": round(
            fused_rate / quartiles["seed_engine"][1], 3
        ),
        "threads_sweep_symbols_per_sec": {
            str(t): {name: median((t, name)) for name in tiers}
            for t in SWEEP_THREADS
        },
        "threads_sweep_q1_q3": {
            str(t): {name: q1_q3((t, name)) for name in tiers}
            for t in SWEEP_THREADS
        },
        "thread_pool": thread_pool,
        "compiled": compiled_col,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=300_000)
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument(
        "--repeats", type=int, default=9,
        help="alternating timing rounds per column (at least 2)",
    )
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
