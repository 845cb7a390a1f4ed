"""Executing decode tasks on a pool of real OS threads.

The fused kernel (:func:`~repro.parallel.fused.fused_run`) already
*models* massive parallelism faithfully (work, sync overhead,
stragglers); this module additionally runs the same tasks on real
threads so the examples and benchmarks can demonstrate genuine
concurrent decoding.
On a host with a C compiler each thread spends its time inside one
``ctypes`` call, which releases the GIL, so the threads decode on
separate cores; on the numpy kernel (a host without one) the GIL-held
numpy dispatch dominates at serving widths and the threads mostly
take turns (DESIGN.md §14).

Recoil threads are fully independent by construction (paper §3.1:
"These decoders are completely independent of each other since they do
not share either states or bitstream starting offsets") — each worker
gets a disjoint subset of the plan's rows (:meth:`TaskColumns.rows`
of a :func:`~repro.parallel.costmodel.assign_tasks` bucket) and
writes to disjoint slices of the shared output array, so no locking
is needed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelismError
from repro.parallel import compiled
from repro.parallel.costmodel import assign_tasks
from repro.parallel.fused import EngineStats, TaskColumns, fused_run
from repro.rans.adaptive import AdaptiveModelProvider


@dataclass
class PoolDecodeResult:
    """Output of a pooled decode."""

    symbols: np.ndarray
    per_worker_stats: list[EngineStats]
    workers: int
    #: decode kernel that ran: ``"compiled"``, or ``"numpy"`` on a
    #: host without a C compiler.
    kernel: str = "numpy"

    @property
    def total_symbols_decoded(self) -> int:
        return sum(s.symbols_decoded for s in self.per_worker_stats)


def decode_with_pool(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    columns: TaskColumns,
    num_symbols: int,
    out_dtype,
    workers: int,
) -> PoolDecodeResult:
    """Decode the plan ``columns`` on ``workers`` real threads.

    Each worker runs the fused kernel (on its thread's scratch arena)
    over a subset of the plan's rows; commit ranges are disjoint so
    the shared output needs no locks.  Tasks are spread by estimated
    cost (walked symbols) via
    :func:`repro.parallel.costmodel.assign_tasks`.
    The workers run the compiled walk when the host has it, else the
    numpy kernel (``result.kernel`` says which).

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved rANS lanes per task (``K``).
    :param words: the shared 16-bit word stream.
    :param columns: the decode plan; tasks have disjoint commit
        ranges.
    :param num_symbols: length of the output sequence.
    :param out_dtype: output symbol dtype.
    :param workers: maximum worker count (buckets never exceed it).
    :returns: the decoded symbols plus per-worker engine stats.
    :raises ParallelismError: ``workers < 1``.
    :raises DecodeError: corrupt stream/metadata.
    """
    if workers < 1:
        raise ParallelismError(f"workers must be >= 1, got {workers}")
    kernel = "compiled" if compiled.kernel_available() else "numpy"

    out = np.empty(num_symbols, dtype=out_dtype)
    buckets = assign_tasks(columns, workers)
    if not buckets:  # zero tasks: nothing to decode, nothing to commit
        return PoolDecodeResult(
            symbols=out, per_worker_stats=[], workers=0, kernel=kernel
        )

    def run(rows: np.ndarray) -> EngineStats:
        return fused_run(provider, lanes, words, columns.rows(rows), out)

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
