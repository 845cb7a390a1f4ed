#!/usr/bin/env python3
"""Decoder-side scaling: batching, real threads, projected devices.

Three views of the same decode workload (paper §5.3 / Figure 7):

1. **Task batching** (the SIMD/CUDA analog): Recoil's decoder threads
   are data-parallel, so the fused kernel can advance *all of them at
   once* as (tasks x lanes) numpy arrays.  Batching 512 tasks into one
   kernel run is dramatically faster than decoding them one-by-one —
   in Python as on a GPU, and for the same reason (amortized
   instruction overhead across parallel work).
2. **Real OS threads**: the tasks are genuinely independent (disjoint
   stream regions, disjoint outputs), so a thread pool decodes them
   concurrently and correctly.  The C walk releases the GIL, so the
   threads do run on separate cores, yet on a 2-CPU AVX2 host two of
   them ran the SIMD body at 0.79-0.95x of one call and
   ``decode_with_pool(2)`` at 0.71-0.84x; only the scalar C body
   gained, up to 1.74x at 64 splits (DESIGN.md §14).  The numpy
   kernels hold the GIL, so there threads take turns.  Parallel
   correctness is free; parallel speed comes from batching first.
3. **Projected device throughput**: the measured work (symbols,
   renormalization reads, sync overhead, imbalance) drives the
   calibrated AVX2/AVX512/Turing cost model.

Run:  python examples/throughput_scaling.py
"""

import time

import numpy as np

from repro.core import RecoilCodec, parse_container
from repro.core.decoder import build_thread_tasks
from repro.data import exponential_bytes
from repro.parallel.costmodel import PROFILES, project_throughput
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import fused_run
from repro.rans.model import SymbolModel

data = exponential_bytes(6_000_000, lam=100, seed=3)
model = SymbolModel.from_data(data, 11, alphabet_size=256)
codec = RecoilCodec(model)
blob = codec.compress(data, num_splits=512)
parsed = parse_container(blob)
words = parsed.words(blob)
plan = build_thread_tasks(parsed.metadata, len(words), parsed.final_states)
print(f"{len(data):,} bytes, {plan.num_tasks} decoder tasks\n")


def run_kernel(row_subsets):
    out = np.empty(parsed.num_symbols, dtype=np.uint8)
    for rows in row_subsets:
        fused_run(parsed.provider, parsed.lanes, words, plan.rows(rows), out)
    return out


# ---- 1. batching is the parallel win ---------------------------------
print("task batching (the SIMD/CUDA analog):")
for label, subsets in [
    ("one task per kernel run (serial decode)", [[t] for t in range(32)]),
    ("32 tasks in one batch", [range(32)]),
]:
    n_syms = sum(int(plan.rows(rows).walk_lengths.sum()) for rows in subsets)
    t0 = time.perf_counter()
    run_kernel(subsets)
    wall = time.perf_counter() - t0
    print(f"  {label:<42} {wall:6.2f}s  "
          f"({n_syms / wall / 1e6:6.1f} Msym/s)")

t0 = time.perf_counter()
out = run_kernel([range(plan.num_tasks)])
wall_batched = time.perf_counter() - t0
assert np.array_equal(out, data)
print(f"  {'all 512 tasks in one batch':<42} {wall_batched:6.2f}s  "
      f"({len(data) / wall_batched / 1e6:6.1f} Msym/s)\n")

# ---- 2. real threads: correct; their speed is in DESIGN.md §14 -------
print("real OS threads (correctness demo; DESIGN.md §14 has the speed):")
for workers in (1, 4):
    t0 = time.perf_counter()
    result = decode_with_pool(
        parsed.provider, parsed.lanes, words, plan,
        parsed.num_symbols, np.uint8, workers,
    )
    wall = time.perf_counter() - t0
    assert np.array_equal(result.symbols, data)
    print(f"  {workers} worker(s): {wall:5.2f}s, decode OK")

# ---- 3. projected device throughput ----------------------------------
print("\nprojected throughput for the measured workload:")
res = codec.decompress_with_stats(blob)
assert np.array_equal(res.symbols, data)
for name in ("cpu-single-thread", "cpu-avx2", "cpu-avx512", "gpu-turing"):
    gbps = project_throughput(
        PROFILES[name], res.workload, res.engine_stats.words_read,
        11, len(data),
    ) / 1e9
    print(f"  {name:<18} {gbps:>7.2f} GB/s")
print(
    f"\nsync-section overhead actually decoded twice: "
    f"{res.workload.overhead_symbols:,} symbols "
    f"({100 * res.workload.overhead_fraction:.3f}% of payload)"
)
