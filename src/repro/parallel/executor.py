"""Executing decode tasks on a pool of real OS threads.

The batched :class:`~repro.parallel.simd.LaneEngine` already *models*
massive parallelism faithfully (work, sync overhead, stragglers); this
module additionally runs the same tasks on real threads so the
examples and benchmarks can demonstrate genuine concurrent decoding.
On the compiled kernel each thread spends its time inside one
``ctypes`` call, which releases the GIL, so the threads decode on
separate cores; on the numpy kernel the GIL-held numpy dispatch
dominates at serving widths and the threads mostly take turns
(DESIGN.md §14).

Recoil threads are fully independent by construction (paper §3.1:
"These decoders are completely independent of each other since they do
not share either states or bitstream starting offsets") — each worker
gets a disjoint subset of tasks and writes to disjoint slices of the
shared output array, so no locking is needed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelismError
from repro.parallel import compiled
from repro.parallel.costmodel import assign_tasks
from repro.parallel.simd import EngineStats, LaneEngine, ThreadTask
from repro.rans.adaptive import AdaptiveModelProvider


@dataclass
class PoolDecodeResult:
    """Output of a pooled decode."""

    symbols: np.ndarray
    per_worker_stats: list[EngineStats]
    workers: int
    #: decode kernel that actually ran (``"numpy"`` after a
    #: graceful fallback from an unavailable ``"compiled"`` request).
    kernel: str = "numpy"

    @property
    def total_symbols_decoded(self) -> int:
        return sum(s.symbols_decoded for s in self.per_worker_stats)


def decode_with_pool(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    tasks: list[ThreadTask],
    num_symbols: int,
    out_dtype,
    workers: int,
    strategy: str = "cost",
    kernel: str = "numpy",
) -> PoolDecodeResult:
    """Decode ``tasks`` on ``workers`` real threads.

    Each worker runs the lane engine (with a private scratch arena)
    over a task subset; commit ranges are disjoint so the shared
    output needs no locks.  Tasks are spread by estimated cost
    (walked symbols) via :func:`repro.parallel.costmodel.assign_tasks`.

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved rANS lanes per task (``K``).
    :param words: the shared 16-bit word stream.
    :param tasks: decode tasks with disjoint commit ranges.
    :param num_symbols: length of the output sequence.
    :param out_dtype: output symbol dtype.
    :param workers: maximum worker count (buckets never exceed it).
    :param strategy: ``"cost"`` (LPT, default) or ``"round_robin"``
        (historical blind dealing).
    :param kernel: ``"numpy"`` or ``"compiled"`` (the bounds-checked
        C walk, DESIGN.md §19).  A ``"compiled"`` request silently
        degrades to the numpy kernel when no toolchain is available
        (check ``result.kernel``).
    :returns: the decoded symbols plus per-worker engine stats.
    :raises ParallelismError: ``workers < 1`` or unknown kernel.
    :raises DecodeError: corrupt stream/metadata.
    :raises ValueError: unknown assignment strategy.
    """
    if workers < 1:
        raise ParallelismError(f"workers must be >= 1, got {workers}")
    if kernel not in compiled.KERNELS:
        raise ParallelismError(
            f"unknown kernel {kernel!r}; expected one of {compiled.KERNELS}"
        )
    kernel = compiled.effective_kernel(kernel)

    out = np.empty(num_symbols, dtype=out_dtype)
    buckets = assign_tasks(tasks, workers, strategy=strategy)
    if not buckets:  # zero tasks: nothing to decode, nothing to commit
        return PoolDecodeResult(
            symbols=out, per_worker_stats=[], workers=0, kernel=kernel
        )

    def run(bucket: list[ThreadTask]) -> EngineStats:
        return LaneEngine(provider, lanes, kernel=kernel).run(
            words, bucket, out
        )

    if len(buckets) == 1:
        stats = [run(buckets[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(buckets)) as pool:
            stats = list(pool.map(run, buckets))
    return PoolDecodeResult(
        symbols=out,
        per_worker_stats=stats,
        workers=len(buckets),
        kernel=kernel,
    )
