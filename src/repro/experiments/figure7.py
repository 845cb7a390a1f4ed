"""Figure 7: decoding throughput on CPU and GPU device profiles.

Reproduction strategy (DESIGN.md substitution table): all decode
*work* is executed for real by the batched lane engine / multians
stitcher — sync sections, cross-boundary re-decodes, workload
imbalance and self-sync overlap are measured, not assumed — and the
counted work is projected onto calibrated device profiles
(:mod:`repro.parallel.costmodel`).  Real wall-clock numbers are
reported alongside for transparency; they run the compiled decode walk
where the host has a C compiler (warmed before any timing) and the
numpy kernel where it has none.

Panels (matching the paper's layout):

- **CPU**: Single-Thread (a) vs Conventional Small (d) vs Recoil Small
  (e), on AVX512 and AVX2 profiles.
- **GPU**: multians (f) vs Conventional Large (b) vs Recoil Large (c)
  on the Turing profile.

Expected shape: Recoil ≈ Conventional on both device classes; both
scale far beyond Single-Thread on CPU and far beyond multians on GPU;
multians collapses at n=16 (measured sync length >> chunk size forces
many re-decode rounds).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import ConventionalCodec
from repro.core import RecoilCodec, parse_container
from repro.core.decoder import RecoilDecoder
from repro.data import load_dataset
from repro.data.registry import BYTE_DATASETS, IMAGE_DATASETS
from repro.errors import DecodeError
from repro.experiments.common import (
    LARGE_SPLITS,
    SMALL_SPLITS,
    build_variations,
)
from repro.parallel import compiled
from repro.parallel.costmodel import PROFILES, project_throughput
from repro.parallel.workload import WorkloadSummary
from repro.stats.report import Table
from repro.tans import MultiansCodec, TansTable
from repro.tans.multians import measure_sync_length


@dataclass
class ThroughputPoint:
    """One bar of Figure 7."""

    dataset: str
    codec: str
    device: str
    projected_gbps: float
    wall_seconds: float
    payload_bytes: int
    notes: str = ""


@dataclass
class Figure7Result:
    quant_bits: int
    points: list[ThroughputPoint] = field(default_factory=list)
    cpu_table: Table | None = None
    gpu_table: Table | None = None

    def series(self, codec: str, device: str) -> dict[str, float]:
        return {
            p.dataset: p.projected_gbps
            for p in self.points
            if p.codec == codec and p.device == device
        }


def _decode_recoil(art, blob: bytes, max_threads=None):
    parsed = parse_container(blob, provider=art.provider)
    decoder = RecoilDecoder(art.provider, lanes=parsed.lanes)
    t0 = time.perf_counter()
    res = decoder.decode(
        parsed.words(blob), parsed.final_states, parsed.metadata,
        max_threads=max_threads,
    )
    wall = time.perf_counter() - t0
    if not np.array_equal(res.symbols, art.data.astype(res.symbols.dtype)):
        raise DecodeError("recoil output mismatch in figure7 run")
    return res, wall


def _decode_conventional(art, blob: bytes):
    codec = ConventionalCodec(art.provider)
    encoded = codec.parse_container(blob)
    t0 = time.perf_counter()
    out, stats, workload = codec.decode(encoded)
    wall = time.perf_counter() - t0
    if not np.array_equal(out, art.data.astype(out.dtype)):
        raise DecodeError("conventional output mismatch in figure7 run")
    return stats, workload, wall


def _multians_workload(
    art, threads: int, sync_length: float
) -> WorkloadSummary:
    """Analytic multians workload: each thread re-decodes its chunk in
    ``1 + ceil(sync / chunk)`` iterative rounds (the parallel merge of
    the original system)."""
    n = len(art.data)
    chunk = max(1.0, n / threads)
    rounds = 1 + math.ceil(sync_length / chunk)
    per_task = np.full(threads, chunk * rounds)
    payload = n
    return WorkloadSummary(
        num_tasks=threads,
        payload_symbols=payload,
        overhead_symbols=int(per_task.sum()) - payload,
        per_task_symbols=per_task,
    )


def run(
    quant_bits: int,
    profile: str = "default",
    datasets: list[str] | None = None,
    include_multians: bool = True,
    multians_decode_cap: int = 1_000_000,
    gpu_threads: int = LARGE_SPLITS,
    cpu_threads: int = SMALL_SPLITS,
) -> Figure7Result:
    """Regenerate one quantization level's worth of Figure 7 panels."""
    if datasets is None:
        datasets = list(BYTE_DATASETS)
        if quant_bits >= 16:
            datasets += IMAGE_DATASETS
    result = Figure7Result(quant_bits=quant_bits)
    compiled.warm_up()  # no compile inside the wall-clock column

    for name in datasets:
        data = load_dataset(name, profile)
        art = build_variations(
            name, data, quant_bits,
            large=gpu_threads, small=cpu_threads,
            include_multians=False,
        )
        payload = art.uncompressed_bytes
        adaptive = name in IMAGE_DATASETS

        # ---- CPU panel: (a), (d), (e) -------------------------------
        res_a, wall_a = _decode_recoil(art, art.blobs["e"], max_threads=1)
        stats_d, wl_d, wall_d = _decode_conventional(art, art.blobs["d"])
        res_e, wall_e = _decode_recoil(art, art.blobs["e"])
        cpu_runs = [
            ("Single-Thread", res_a.workload, res_a.engine_stats.words_read,
             wall_a, {"AVX512": "cpu-single-thread",
                      "AVX2": "cpu-single-thread-avx2"}),
            ("Conventional", wl_d, stats_d.words_read, wall_d,
             {"AVX512": "cpu-avx512", "AVX2": "cpu-avx2"}),
            ("Recoil", res_e.workload, res_e.engine_stats.words_read,
             wall_e, {"AVX512": "cpu-avx512", "AVX2": "cpu-avx2"}),
        ]
        for codec, wl, words_read, wall, device_map in cpu_runs:
            for simd, profile_name in device_map.items():
                gbps = project_throughput(
                    PROFILES[profile_name], wl, words_read,
                    quant_bits, payload, adaptive=adaptive,
                ) / 1e9
                result.points.append(
                    ThroughputPoint(
                        dataset=name,
                        codec=f"{codec} {simd}",
                        device="cpu",
                        projected_gbps=gbps,
                        wall_seconds=wall,
                        payload_bytes=payload,
                    )
                )

        # ---- GPU panel: (b), (c), (f) -------------------------------
        stats_b, wl_b, wall_b = _decode_conventional(art, art.blobs["b"])
        res_c, wall_c = _decode_recoil(art, art.blobs["c"])
        for codec, wl, words_read, wall in [
            ("Conventional CUDA", wl_b, stats_b.words_read, wall_b),
            ("Recoil CUDA", res_c.workload,
             res_c.engine_stats.words_read, wall_c),
        ]:
            gbps = project_throughput(
                PROFILES["gpu-turing"], wl, words_read, quant_bits,
                payload, adaptive=adaptive,
            ) / 1e9
            result.points.append(
                ThroughputPoint(
                    dataset=name, codec=codec, device="gpu",
                    projected_gbps=gbps, wall_seconds=wall,
                    payload_bytes=payload,
                )
            )

        if include_multians and name not in IMAGE_DATASETS:
            table_bits = 16 if quant_bits >= 16 else 12
            table = TansTable.from_data(
                art.data, table_bits, alphabet_size=256
            )
            mc = MultiansCodec(table)
            # Real decode on a capped slice.  Since the fused kernel
            # (repro.tans.fused) replaced the seed's per-symbol
            # stitch, the default cap covers the full stream at CI
            # scale — including the n=16 regime where most chunks
            # never synchronize.
            cap = min(len(art.data), multians_decode_cap)
            blob_small = mc.compress(art.data[:cap])
            t0 = time.perf_counter()
            out, mstats = mc.decompress(
                blob_small, num_threads=min(gpu_threads, 256)
            )
            wall_f = time.perf_counter() - t0
            if not np.array_equal(out, art.data[:cap].astype(out.dtype)):
                raise DecodeError("multians output mismatch in figure7")
            enc_small, _ = mc.parse(blob_small)
            sync = measure_sync_length(
                table, enc_small, samples=5,
                window_symbols=min(cap, 150_000),
            )
            wl_f = _multians_workload(art, gpu_threads, sync)
            words_equiv = enc_small.bit_count // 16 * (len(art.data) // cap)
            gbps = project_throughput(
                PROFILES["gpu-turing-multians"], wl_f, words_equiv,
                quant_bits, payload,
            ) / 1e9
            result.points.append(
                ThroughputPoint(
                    dataset=name, codec="multians", device="gpu",
                    projected_gbps=gbps, wall_seconds=wall_f,
                    payload_bytes=payload,
                    notes=(
                        f"sync~{sync:.0f} sym, "
                        f"unsynced {mstats.unsynced_threads}/{mstats.threads}"
                    ),
                )
            )

    # ---- tables -------------------------------------------------------
    cpu_codecs = [
        "Single-Thread AVX512", "Conventional AVX512", "Recoil AVX512",
        "Single-Thread AVX2", "Conventional AVX2", "Recoil AVX2",
    ]
    cpu = Table(
        headers=["Dataset"] + cpu_codecs,
        title=f"Figure 7 (CPU) — projected GB/s, n={quant_bits}",
    )
    gpu_codecs = ["multians", "Conventional CUDA", "Recoil CUDA"]
    gpu = Table(
        headers=["Dataset"] + gpu_codecs,
        title=f"Figure 7 (GPU) — projected GB/s, n={quant_bits}",
    )
    for name in datasets:
        cpu.add_row(
            name,
            *[
                f"{result.series(c, 'cpu').get(name, float('nan')):.2f}"
                for c in cpu_codecs
            ],
        )
        gpu.add_row(
            name,
            *[
                f"{result.series(c, 'gpu').get(name, float('nan')):.1f}"
                for c in gpu_codecs
            ],
        )
    result.cpu_table = cpu
    result.gpu_table = gpu
    return result


def main(argv: list[str] | None = None) -> int:
    """Regenerate Figure 7 from the command line.

    ``--smoke`` runs one dataset at one quantization level with a
    small multians cap — the CI tier-1 gate that the whole panel
    pipeline (both device classes, sync measurement, cost-model
    projection) stays wired together.  The default regenerates both
    paper panels (n=11 and n=16, the multians collapse) at the chosen
    profile.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="figure7",
        description="Figure 7: decoding throughput on CPU/GPU profiles.",
    )
    parser.add_argument(
        "--profile", default="ci", choices=("ci", "default", "paper"),
        help="dataset size profile",
    )
    parser.add_argument(
        "--quant", type=int, nargs="+", default=[11, 16],
        help="quantization levels to run (default: both panels)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast wiring check: one dataset, n=11, capped multians",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if args.smoke:
        runs = [(11, dict(datasets=["rand_100"],
                          multians_decode_cap=120_000))]
    else:
        runs = [(n, {}) for n in args.quant]
    for quant_bits, kw in runs:
        res = run(quant_bits, args.profile, **kw)
        print(res.cpu_table)
        print()
        print(res.gpu_table)
        print()
        missing = [
            codec
            for codec in ("multians", "Recoil CUDA", "Conventional CUDA")
            if not any(p.codec == codec for p in res.points)
        ]
        if missing:
            raise SystemExit(f"figure7 panel incomplete: missing {missing}")
    print(
        f"[figure7] completed in {time.perf_counter() - t0:.1f}s "
        f"(profile={args.profile}, smoke={args.smoke})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
