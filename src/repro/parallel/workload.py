"""Work accounting for decode runs.

The cost model converts *counted work* into projected wall-clock time;
this module does the counting.  The key quantities, per decoder
thread/task:

- payload symbols (committed output),
- overhead symbols (Synchronization + Cross-Boundary re-decodes —
  Recoil's runtime overhead, paper §4.2),
- the makespan proxy: with ``P`` hardware workers executing ``T``
  tasks, time scales with the max per-worker total after longest-
  processing-time (LPT) assignment, :func:`lpt_schedule` — the one
  schedule :func:`~repro.parallel.costmodel.assign_tasks` also uses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.parallel.fused import TaskColumns


@dataclass
class WorkloadSummary:
    """Symbol counts describing one decode workload."""

    num_tasks: int
    payload_symbols: int
    overhead_symbols: int
    per_task_symbols: np.ndarray  # total walked symbols per task

    @property
    def total_symbols(self) -> int:
        return self.payload_symbols + self.overhead_symbols

    @property
    def overhead_fraction(self) -> float:
        if self.payload_symbols == 0:
            return 0.0
        return self.overhead_symbols / self.payload_symbols

    @property
    def imbalance(self) -> float:
        """max/mean of per-task work (1.0 = perfectly balanced)."""
        if len(self.per_task_symbols) == 0:
            return 1.0
        mean = self.per_task_symbols.mean()
        return float(self.per_task_symbols.max() / mean) if mean else 1.0

    def makespan_symbols(self, workers: int) -> float:
        """Max per-worker symbols after LPT assignment of tasks
        (:func:`lpt_schedule`).

        Models a pool of ``workers`` cores/warps executing the tasks;
        equals total/workers for balanced work, and the longest task
        when tasks >> workers does not hold.
        """
        return float(lpt_schedule(self.per_task_symbols, workers)[1])


def lpt_schedule(
    weights: np.ndarray, workers: int
) -> tuple[list[list[int]], float]:
    """The longest-processing-time (LPT) greedy schedule of tasks
    with ``weights`` on ``workers`` workers: heaviest task first (ties
    by row), each onto the least-loaded worker (ties by worker).

    Returns each worker's task rows and the makespan, the largest
    worker load; the makespan does not depend on how ties break.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    weights = np.asarray(weights)
    buckets: list[list[int]] = [[] for _ in range(workers)]
    heap = [(0, w) for w in range(workers)]
    order = np.lexsort((np.arange(len(weights)), -weights))
    for i, cost in zip(order.tolist(), weights[order].tolist()):
        load, w = heapq.heappop(heap)
        buckets[w].append(i)
        heapq.heappush(heap, (load + cost, w))
    return buckets, max(load for load, _ in heap)


def summarize_tasks(columns: TaskColumns) -> WorkloadSummary:
    """Count payload and overhead symbols across a decode plan."""
    per = columns.walk_lengths
    commit_hi, commit_lo = columns.geom[:, 3], columns.geom[:, 4]
    payload = int(np.maximum(commit_hi - commit_lo + 1, 0).sum())
    total = int(per.sum())
    return WorkloadSummary(
        num_tasks=columns.num_tasks,
        payload_symbols=payload,
        overhead_symbols=total - payload,
        per_task_symbols=per,
    )
