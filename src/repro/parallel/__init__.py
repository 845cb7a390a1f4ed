"""Parallel execution substrate.

- :mod:`repro.parallel.fused` — the decode plan, ``TaskColumns`` (one
  row per decoder thread, DESIGN.md §7), and the fused wide-lane
  decode kernel ``fused_run`` (DESIGN.md §8): a batch of decoder
  threads, each with 32 interleaved lanes, as one flat state vector
  (the reproduction's stand-in for AVX vectors and CUDA warps), an
  analytically-planned steady-state fast path, zero per-iteration
  allocation.  ``reference_walk`` runs the same walk on the masked
  loop alone, for differential testing; ``fused_run_multi`` extends
  the kernel to tasks spanning multiple word buffers (cross-request
  fusion, DESIGN.md §12).
- :mod:`repro.parallel.fused_encode` — the encode-side twin
  (DESIGN.md §10): blocked trajectory staging, in-kernel split-event
  recording, independent encodes fused into one wide state vector.
- :mod:`repro.parallel.buffers` — the scratch arenas backing the
  kernels, one per thread (DESIGN.md §9).
- :mod:`repro.parallel.executor` — pooled execution of decode tasks
  on real OS threads, cost-balanced via the cost model.
- :mod:`repro.parallel.compiled` — the C twins of the inner loops
  (DESIGN.md §19), driven through ``ctypes``.  Host detection is the
  only kernel choice: every decode and encode runs them where a C
  compiler exists and the numpy kernels where none does.
- :mod:`repro.parallel.costmodel` — analytical device profiles used to
  project Figure-7-style GB/s numbers from counted work, plus the
  task-assignment cost heuristics.
- :mod:`repro.parallel.workload` — work accounting helpers.
"""

from repro.parallel.buffers import ScratchArena
from repro.parallel.fused import (
    EngineStats,
    MultiRunResult,
    StreamSegment,
    TaskColumns,
    fused_run_multi,
)
from repro.parallel.executor import PoolDecodeResult, decode_with_pool
from repro.parallel.costmodel import (
    DeviceProfile,
    assign_tasks,
    estimate_task_symbols,
    project_throughput,
)
from repro.parallel.workload import WorkloadSummary, summarize_tasks

__all__ = [
    "MultiRunResult",
    "ScratchArena",
    "StreamSegment",
    "TaskColumns",
    "EngineStats",
    "fused_run_multi",
    "DeviceProfile",
    "assign_tasks",
    "estimate_task_symbols",
    "project_throughput",
    "WorkloadSummary",
    "summarize_tasks",
]
