"""Executing decode tasks on real OS threads or sharded processes.

The batched :class:`~repro.parallel.simd.LaneEngine` already *models*
massive parallelism faithfully (work, sync overhead, stragglers); this
module additionally runs the same tasks on a real worker pool so the
examples can demonstrate genuine concurrent decoding.  Two backends
share one interface:

- ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  numpy kernels release the GIL for large array operations, but at
  serving widths the per-op arrays are small and the GIL-held numpy
  *dispatch* dominates, so threads convoy (docs/BENCHMARKS.md).
- ``"process"`` — the sharded multi-process executor
  (:mod:`repro.parallel.shards`): worker processes run the same fused
  kernels zero-copy over shared memory, immune to the convoy.

Recoil threads are fully independent by construction (paper §3.1:
"These decoders are completely independent of each other since they do
not share either states or bitstream starting offsets") — each worker
gets a disjoint subset of tasks and writes to disjoint slices of the
shared output array, so no locking is needed, and the two backends
produce bit-identical output.
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

BACKENDS = ("thread", "process")


@dataclass
class PoolDecodeResult:
    """Output of a pooled decode."""

    symbols: np.ndarray
    per_worker_stats: list[EngineStats]
    workers: int
    #: backend that actually ran (``"thread"`` after a graceful
    #: fallback from an unavailable ``"process"`` request).
    backend: str = "thread"
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
    backend: str = "thread",
    executor=None,
) -> PoolDecodeResult:
    """Decode ``tasks`` on ``workers`` real threads or shard processes.

    Each worker runs the fused wide-lane kernel (with a private
    scratch arena) over a task subset; commit ranges are disjoint so
    the shared output needs no locks.  Tasks are spread by estimated
    cost (walked symbols) via
    :func:`repro.parallel.costmodel.assign_tasks` — the same LPT plan
    for both backends.

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved rANS lanes per task (``K``).
    :param words: the shared 16-bit word stream.
    :param tasks: decode tasks with disjoint commit ranges.
    :param num_symbols: length of the output sequence.
    :param out_dtype: output symbol dtype.
    :param workers: maximum worker count (buckets never exceed it).
    :param strategy: ``"cost"`` (LPT, default), ``"round_robin"``
        (historical blind dealing), or ``"sharded"`` — an alias for
        ``strategy="cost"`` + ``backend="process"``.
    :param backend: ``"thread"`` or ``"process"``, optionally with a
        ``"+compiled"`` suffix (``"thread+compiled"``) to run the
        compiled decode kernel; bare ``"compiled"`` means
        ``"thread+compiled"``.  A ``"compiled"`` request silently
        degrades to the numpy kernel when no toolchain is available
        (check ``result.kernel``).  A ``"process"`` request falls
        back to threads when shared memory is unavailable on the
        host (check ``result.backend`` for what actually ran).  The first ``"process"`` call lazily starts
        the shared worker pool; if the calling process has live
        non-main threads at that point, the pool uses the ``spawn``
        start method (slower startup) instead of ``fork``, which
        would risk deadlocking the children on locks held by those
        threads — latency-sensitive callers should pre-build the
        pool while single-threaded (as the serve dispatcher does)
        via :func:`repro.parallel.shards.default_executor`.
    :param executor: optional pre-built
        :class:`repro.parallel.shards.ShardedExecutor` to dispatch on
        (the serve dispatcher passes its own); by default the shared
        module-level pool is used.
    :returns: the decoded symbols plus per-worker engine stats.
    :raises ParallelismError: ``workers < 1`` or unknown backend.  A
        shard-worker death mid-job does NOT raise: the identical plan
        is transparently re-run on threads (bit-identical output,
        ``result.backend == "thread"``) while the pool self-heals.
    :raises DecodeError: corrupt stream/metadata (either backend).
    :raises ValueError: unknown assignment strategy.
    """
    if workers < 1:
        raise ParallelismError(f"workers must be >= 1, got {workers}")
    if strategy == "sharded":
        strategy, backend = "cost", "process"
    try:
        backend, kernel = compiled.split_backend(backend)
    except ValueError as exc:
        raise ParallelismError(str(exc)) from None
    if backend not in BACKENDS:
        raise ParallelismError(
            f"unknown backend {backend!r}; expected one of "
            f"{compiled.backend_choices(BACKENDS)}"
        )
    kernel = compiled.effective_kernel(kernel)

    if backend == "process":
        from repro.parallel import shards

        pool = executor if executor is not None else (
            shards.default_executor(workers)
        )
        if pool is not None and not pool.broken and not pool.closed:
            try:
                return pool.decode(
                    provider, lanes, words, tasks, num_symbols, out_dtype,
                    workers=workers, strategy=strategy, kernel=kernel,
                )
            except ParallelismError:
                # Infrastructure failure mid-job (worker death, shm
                # exhaustion, respawn backoff): the shard plan is
                # deterministic and side-effect-free, so re-running it
                # on threads below yields bit-identical output.  Real
                # decode failures (DecodeError) propagate — a retry
                # cannot fix corrupt data.  Callers see
                # ``result.backend == "thread"`` and may re-promote
                # later (the serve dispatcher does).
                pass
        # Graceful fallback: no shared memory on this host (or the
        # default pool could not start) — run the same plan on threads.

    out = np.empty(num_symbols, dtype=out_dtype)
    buckets = assign_tasks(tasks, workers, strategy=strategy)
    if not buckets:  # zero tasks: nothing to decode, nothing to commit
        return PoolDecodeResult(
            symbols=out, per_worker_stats=[], workers=0,
            backend="thread", kernel=kernel,
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
        backend="thread",
        kernel=kernel,
    )
