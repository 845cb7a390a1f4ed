"""Encode-throughput trajectory harness: ``BENCH_encode.json``.

Measures wall-clock symbols/second of every encoder tier on the
Figure 7 CPU workload (entropy-matched enwik8 surrogate, n=11, K=32):

- ``seed_loop``   — the seed commit's per-group encode loop
  (reimplemented below verbatim), with event recording: the Recoil
  "encode once, record split metadata" path before this PR;
- ``reference``   — ``InterleavedEncoder.encode_reference`` (the kept
  differential loop, one PR of hoists ahead of the seed);
- ``fused``       — the fused wide-lane encode kernel, events recorded
  in-kernel (single stream: K-wide, dependency-bound);
- ``recoil_full`` — fused pass + split selection + metadata;
- ``compress_splits256`` — the whole write path at serving density:
  ``build_container(RecoilEncoder.encode(data, 256))``, i.e. the
  encode, the split selection over 255 boundaries and the metadata
  serialization;
- partition sweep — all Conventional partitions fused into one
  ``(P*K,)``-wide kernel call vs the seed loop encoding them one by
  one: the width the fused kernel is designed for, mirroring
  ``bench_fused.py``'s task-fused headline.

``speedup_fused_vs_seed`` (the tracked headline) is the fused kernel
vs the seed loop at the widest sweep point; the single-stream ratio is
reported alongside.  These columns time the numpy kernels: on a host
with a C compiler they run as a host without one (``numpy_host``,
docs/BENCHMARKS.md).  The ``compiled`` section re-times ``fused`` and
``compress_splits256`` on the host's own kernel when a toolchain is
present: there one C call makes the whole encode with its events, and
one more the split selection (DESIGN.md §6, §10, §19).  Every column is
the median (``q1``/``q3`` alongside) of ``--repeats`` alternating
rounds over all columns of its section
(``repro.stats.timing.alternating_rounds``).
CI runs this in smoke mode.  Usage::

    python benchmarks/bench_encode.py [--symbols 300000] [--repeats 9]
        [--out BENCH_encode.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np

from repro.baselines.conventional import ConventionalCodec, partition_bounds
from repro.core.api import recoil_decompress
from repro.core.container import build_container
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.parallel import compiled
from repro.rans.adaptive import StaticModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS, RENORM_MASK
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel
from repro.stats.timing import alternating_rounds

from numpy_host import numpy_host

QUANT_BITS = 11
LANES = 32
PARTITION_SWEEP = (1, 8, 16, 32)
#: splits of the ``compress_splits256`` column (the serving density).
SERVE_SPLITS = 256


def _seed_encode(provider, lanes, data, record_events=False):
    """The seed commit's ``InterleavedEncoder.encode`` loop, verbatim
    (modulo surrounding class plumbing) — the benchmark baseline."""
    K = lanes
    N = len(data)
    n = provider.quant_bits
    shift = np.uint64(RENORM_BITS + 16 - n)
    rb = np.uint64(RENORM_BITS)
    n64 = np.uint64(n)
    mask16 = np.uint64(RENORM_MASK)

    f_all, cdf_all = provider.gather_freq_cdf(data, start_index=1)

    x = np.full(K, L_BOUND, dtype=np.uint64)
    words = np.empty(N + 8, dtype=np.uint16)
    if record_events:
        ev_sym = np.empty(N + 8, dtype=np.uint64)
        ev_lane = np.empty(N + 8, dtype=np.uint16)
        ev_state = np.empty(N + 8, dtype=np.uint16)
    wc = 0

    num_groups = -(-N // K)
    for g in range(num_groups):
        base = g * K
        cnt = min(K, N - base)
        f = f_all[base : base + cnt]
        cdf = cdf_all[base : base + cnt]
        xs = x[:cnt]
        idx = np.flatnonzero(xs >= (f << shift))
        c = len(idx)
        if c:
            overflowed = xs[idx]
            words[wc : wc + c] = (overflowed & mask16).astype(np.uint16)
            renormed = overflowed >> rb
            x[idx] = renormed
            if record_events:
                ev_sym[wc : wc + c] = base + idx + 1
                ev_lane[wc : wc + c] = idx
                ev_state[wc : wc + c] = renormed.astype(np.uint16)
            wc += c
            xs = x[:cnt]
        q = xs // f
        x[:cnt] = (q << n64) + cdf + (xs - q * f)
    return words[:wc].copy(), x


def _seed_encode_partitions(provider, data, partitions):
    """Seed-style Conventional encode: the seed loop over each
    partition in turn (the seed had no multi-task kernel)."""
    chunks = []
    for start, end in partition_bounds(len(data), partitions):
        words, _ = _seed_encode(provider, LANES, data[start:end])
        chunks.append(words)
    return chunks


def _timer(fn, n_symbols):
    """A timer for :func:`alternating_rounds`: symbols/second of one
    call of ``fn``."""

    def timer() -> float:
        t0 = time.perf_counter()
        fn()
        return n_symbols / (time.perf_counter() - t0)

    return timer


def run(symbols: int, rounds: int) -> dict:
    data = text_surrogate(symbols, target_entropy=5.29, seed=77)
    model = SymbolModel.from_data(data, QUANT_BITS, alphabet_size=256)
    provider = StaticModelProvider(model)
    N = len(data)

    with numpy_host():
        # Correctness before speed: fused == seed loop, and it decodes.
        encoder = InterleavedEncoder(provider, LANES)
        fused = encoder.encode(data, record_events=True)
        seed_words, seed_states = _seed_encode(
            provider, LANES, data, record_events=True
        )
        if not np.array_equal(fused.words, seed_words) or not np.array_equal(
            fused.final_states, seed_states
        ):
            raise AssertionError("fused encode diverged from the seed loop")
        decoded = InterleavedDecoder(provider, LANES).decode(
            fused.words, fused.final_states, N
        )
        if not np.array_equal(decoded, data):
            raise AssertionError("encode/decode round trip failed")

        recoil = RecoilEncoder(provider, LANES)

        def compress():
            return build_container(
                recoil.encode(data, SERVE_SPLITS), provider=provider
            )

        if not np.array_equal(recoil_decompress(compress()), data):
            raise AssertionError("compress_splits256 round trip failed")

        codec = ConventionalCodec(provider, LANES)
        timers = {
            "seed_loop": lambda: _seed_encode(
                provider, LANES, data, record_events=True
            ),
            "reference": lambda: encoder.encode_reference(
                data, record_events=True
            ),
            "fused": lambda: encoder.encode(data, record_events=True),
            "recoil_full": lambda: recoil.encode(data, num_threads=8),
            "compress_splits256": compress,
        }
        # -- the width the kernel is built for: P partitions, one call --------
        for p in PARTITION_SWEEP:
            timers[(p, "fused")] = lambda p=p: codec.encode(data, p)
            timers[(p, "seed_loop")] = (
                lambda p=p: _seed_encode_partitions(provider, data, p)
            )
        quartiles = alternating_rounds(
            {k: _timer(fn, N) for k, fn in timers.items()}, rounds
        )

    def median(key):
        return round(quartiles[key][1], 1)

    def q1_q3(key):
        return [round(quartiles[key][0], 1), round(quartiles[key][2], 1)]

    tier_names = [k for k in timers if isinstance(k, str)]
    rates = {k: quartiles[k][1] for k in tier_names}
    sweep: dict[str, dict[str, float]] = {}
    for p in PARTITION_SWEEP:
        fused_r, seed_r = median((p, "fused")), median((p, "seed_loop"))
        sweep[str(p)] = {
            "fused": fused_r,
            "seed_loop": seed_r,
            "speedup": round(fused_r / seed_r, 3),
        }

    # -- compiled kernel column (DESIGN.md §19) -------------------------
    # The encode with events and the whole compress on the C kernels;
    # warmed before timing, compile counter checked after.
    compiled_col: dict = {
        "available": compiled.kernel_available(),
        "toolchain": compiled.toolchain(),
        "host_cpus": os.cpu_count(),
    }
    if compiled.kernel_available():
        compiled.warm_up()
        events = compiled.compile_events()
        on_c = alternating_rounds(
            {
                "compiled": _timer(timers["fused"], N),
                "compress_splits256": _timer(compress, N),
            },
            rounds,
        )
        if compiled.compile_events() != events:
            raise AssertionError("compile landed inside a timed region")
        compiled_col["symbols_per_sec"] = {
            "numpy": round(rates["fused"], 1),
            "compiled": round(on_c["compiled"][1], 1),
            "compress_splits256": round(on_c["compress_splits256"][1], 1),
        }
        compiled_col["symbols_per_sec_q1_q3"] = {
            k: [round(on_c[k][0], 1), round(on_c[k][2], 1)] for k in on_c
        }
        compiled_col["speedup_compiled_vs_numpy"] = round(
            on_c["compiled"][1] / rates["fused"], 3
        )

    widest = sweep[str(PARTITION_SWEEP[-1])]
    return {
        "workload": {
            "dataset": "enwik8-surrogate (Figure 7 CPU panel)",
            "symbols": symbols,
            "quant_bits": QUANT_BITS,
            "lanes": LANES,
            "host_cpus": os.cpu_count(),
        },
        "rounds": rounds,
        "symbols_per_sec": {k: median(k) for k in tier_names},
        "symbols_per_sec_q1_q3": {k: q1_q3(k) for k in tier_names},
        "speedup_fused_vs_seed_single_stream": round(
            rates["fused"] / rates["seed_loop"], 3
        ),
        "partition_sweep_symbols_per_sec": sweep,
        "partition_sweep_q1_q3": {
            str(p): {name: q1_q3((p, name)) for name in ("fused", "seed_loop")}
            for p in PARTITION_SWEEP
        },
        "speedup_fused_vs_seed": widest["speedup"],
        "compiled": compiled_col,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--symbols", type=int, default=300_000)
    ap.add_argument(
        "--repeats", type=int, default=9,
        help="alternating timing rounds per column (at least 2)",
    )
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "BENCH_encode.json"),
    )
    args = ap.parse_args(argv)

    result = run(args.symbols, args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
