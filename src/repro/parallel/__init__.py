"""Parallel execution substrate.

- :mod:`repro.parallel.simd` — the lane-engine front end: a batch of
  decoder threads, each with 32 interleaved lanes, as dense array
  operations (the reproduction's stand-in for AVX vectors and CUDA
  warps).  ``run`` routes through the fused kernel; ``run_reference``
  keeps the original masked loop for differential testing.
- :mod:`repro.parallel.fused` — the fused wide-lane decode kernel
  (DESIGN.md §8): one flat state vector across all partitions, an
  analytically-planned steady-state fast path, zero per-iteration
  allocation; ``fused_run_multi`` extends it to tasks spanning
  multiple word buffers (cross-request fusion, DESIGN.md §12).
- :mod:`repro.parallel.fused_encode` — the encode-side twin
  (DESIGN.md §10): blocked trajectory staging, in-kernel split-event
  recording, independent encodes fused into one wide state vector.
- :mod:`repro.parallel.buffers` — the scratch-buffer arena backing the
  kernels (DESIGN.md §9).
- :mod:`repro.parallel.executor` — pooled execution of decode tasks
  on real OS threads, cost-balanced via the cost model, on either
  kernel (``kernel={"numpy","compiled"}``).
- :mod:`repro.parallel.compiled` — the C twins of the inner loops
  (DESIGN.md §19), driven through ``ctypes``.
- :mod:`repro.parallel.costmodel` — analytical device profiles used to
  project Figure-7-style GB/s numbers from counted work, plus the
  task-assignment cost heuristics.
- :mod:`repro.parallel.workload` — work accounting helpers.
"""

from repro.parallel.buffers import ScratchArena
from repro.parallel.fused import (
    MultiRunResult,
    StreamSegment,
    fused_run_multi,
)
from repro.parallel.executor import PoolDecodeResult, decode_with_pool
from repro.parallel.simd import LaneEngine, ThreadTask, EngineStats
from repro.parallel.costmodel import (
    DeviceProfile,
    assign_tasks,
    estimate_task_symbols,
    project_throughput,
)
from repro.parallel.workload import WorkloadSummary, summarize_tasks

__all__ = [
    "LaneEngine",
    "MultiRunResult",
    "ScratchArena",
    "StreamSegment",
    "ThreadTask",
    "EngineStats",
    "fused_run_multi",
    "DeviceProfile",
    "assign_tasks",
    "estimate_task_symbols",
    "project_throughput",
    "WorkloadSummary",
    "summarize_tasks",
]
