"""Analytical device cost model for throughput projection.

Pure Python cannot hit the paper's 90 GB/s, so Figure 7 is reproduced
in two layers (DESIGN.md substitution table):

1. the *work* is executed for real by the fused decode kernel
   (:func:`~repro.parallel.fused.fused_run`), so sync overhead,
   workload imbalance and stragglers are measured, not assumed, and
2. this module converts the counted work into projected wall-clock
   seconds for calibrated device profiles resembling the paper's
   testbed (Xeon W-3245 16C for AVX2/AVX512, RTX 2080 Ti for CUDA).

The profile constants were calibrated once against the paper's
Single-Thread and Conventional numbers (order-of-magnitude fits); the
*relative* behaviour between codecs on a device — which is what the
experiments assert — comes entirely from the measured work.

Model: a device has ``workers`` independent execution units, each
processing one decoder task at a time at ``symbols_per_cycle``
(amortized across its SIMD lanes), with a per-task fixed startup cost
and a per-word memory cost.  Time is the LPT makespan over workers.
A task's weight is its walk length, read from the decode plan
(:attr:`~repro.parallel.fused.TaskColumns.walk_lengths`) by
:func:`estimate_task_symbols`, :func:`assign_tasks` and the workload
summary alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.fused import TaskColumns
from repro.parallel.workload import WorkloadSummary, lpt_schedule


@dataclass(frozen=True)
class DeviceProfile:
    """One execution target for throughput projection."""

    name: str
    workers: int  # physical cores or concurrently resident warps
    clock_hz: float
    symbols_per_cycle: float  # per worker, amortized over SIMD lanes
    task_startup_cycles: float  # per-task launch / sync barrier cost
    word_read_cycles: float  # memory cost per 16-bit stream word
    lut_penalty_16: float = 1.0  # slowdown factor when n = 16 LUTs
    # spill out of L1/texture cache (the packed-LUT optimization of
    # §4.4 no longer applies)
    adaptive_penalty: float = 1.0  # slowdown for per-index adaptive
    # models (scattered 2-D table gathers instead of one hot LUT; the
    # paper's div2k rows decode ~4-6x slower per symbol than text)

    def cycles_for(
        self,
        summary: WorkloadSummary,
        words_read: int,
        quant_bits: int,
        adaptive: bool = False,
    ) -> float:
        """Projected cycles for a decode described by ``summary``."""
        per_symbol = 1.0 / self.symbols_per_cycle
        if quant_bits > 12:
            per_symbol *= self.lut_penalty_16
        if adaptive:
            per_symbol *= self.adaptive_penalty
        # Distribute tasks over workers; each worker's cycle count is
        # its symbols * per_symbol plus startup per task.  The word
        # reads are proportional to symbols, fold them in on average.
        words_per_symbol = words_read / max(summary.total_symbols, 1)
        per_symbol += words_per_symbol * self.word_read_cycles
        makespan = summary.makespan_symbols(self.workers)
        tasks_per_worker = max(1.0, summary.num_tasks / self.workers)
        return makespan * per_symbol + tasks_per_worker * self.task_startup_cycles

    def seconds_for(
        self,
        summary: WorkloadSummary,
        words_read: int,
        quant_bits: int,
        adaptive: bool = False,
    ) -> float:
        return (
            self.cycles_for(summary, words_read, quant_bits, adaptive)
            / self.clock_hz
        )


#: Profiles loosely calibrated to the paper's testbed.  ``AVX512`` and
#: ``AVX2`` differ in amortized symbols/cycle (16- vs 8-wide vectors,
#: §4.4 unroll factors); the GPU profile models 68 SMs x 16 resident
#: warps on a Turing part.
PROFILES: dict[str, DeviceProfile] = {
    "cpu-avx512": DeviceProfile(
        name="cpu-avx512",
        workers=16,
        clock_hz=3.9e9,
        symbols_per_cycle=0.20,
        task_startup_cycles=2.0e4,
        word_read_cycles=0.5,
        lut_penalty_16=1.35,
        adaptive_penalty=4.0,
    ),
    "cpu-avx2": DeviceProfile(
        name="cpu-avx2",
        workers=16,
        clock_hz=3.9e9,
        symbols_per_cycle=0.135,
        task_startup_cycles=2.0e4,
        word_read_cycles=0.5,
        lut_penalty_16=1.35,
        adaptive_penalty=4.0,
    ),
    "cpu-single-thread": DeviceProfile(
        name="cpu-single-thread",
        workers=1,
        clock_hz=3.9e9,
        symbols_per_cycle=0.20,
        task_startup_cycles=2.0e4,
        word_read_cycles=0.5,
        lut_penalty_16=1.35,
        adaptive_penalty=4.0,
    ),
    "cpu-single-thread-avx2": DeviceProfile(
        name="cpu-single-thread-avx2",
        workers=1,
        clock_hz=3.9e9,
        symbols_per_cycle=0.135,
        task_startup_cycles=2.0e4,
        word_read_cycles=0.5,
        lut_penalty_16=1.35,
        adaptive_penalty=4.0,
    ),
    "gpu-turing": DeviceProfile(
        name="gpu-turing",
        workers=1088,  # 68 SMs x 16 resident warps
        clock_hz=1.545e9,
        symbols_per_cycle=0.05,  # per warp (32 lanes, memory-bound)
        task_startup_cycles=4.0e3,
        word_read_cycles=0.1,
        lut_penalty_16=1.25,
        adaptive_penalty=5.0,
    ),
    # multians decodes one symbol per thread-step through a scattered
    # table walk (bit-granular renormalization, no packed-LUT trick,
    # poor coalescing — §2.4), so its per-warp rate is far below the
    # rANS decoders'.  Its n=16 pain is additionally carried by the
    # measured synchronization rounds, not this constant.
    "gpu-turing-multians": DeviceProfile(
        name="gpu-turing-multians",
        workers=1088,
        clock_hz=1.545e9,
        symbols_per_cycle=0.0078,
        task_startup_cycles=4.0e3,
        word_read_cycles=0.1,
        lut_penalty_16=1.25,
    ),
}


def estimate_task_symbols(columns: TaskColumns) -> np.ndarray:
    """Estimated cost of each decode task, in walked symbols.

    The walk length (sync + committed + cross-boundary symbols,
    :attr:`TaskColumns.walk_lengths`) is the dominant cost term of the
    device model above — word reads are proportional to it and the
    startup cost is per-task constant — so it doubles as the
    scheduling weight for real-thread execution.
    """
    return columns.walk_lengths


def assign_tasks(columns: TaskColumns, workers: int) -> list[np.ndarray]:
    """Partition the plan's tasks across at most ``workers`` buckets,
    each an array of row indices (:meth:`TaskColumns.rows`).

    The longest-processing-time greedy assignment
    (:func:`~repro.parallel.workload.lpt_schedule`) weighted by
    :func:`estimate_task_symbols` — the same schedule whose makespan
    :meth:`WorkloadSummary.makespan_symbols` uses to project device
    time — so stragglers (long cross-boundary walks, uneven splits)
    are spread instead of landing on one worker.  Empty buckets are
    dropped.
    """
    buckets, _ = lpt_schedule(estimate_task_symbols(columns), workers)
    return [np.array(b, dtype=np.int64) for b in buckets if b]


def project_throughput(
    profile: DeviceProfile | str,
    summary: WorkloadSummary,
    words_read: int,
    quant_bits: int,
    payload_bytes: int,
    adaptive: bool = False,
) -> float:
    """Projected decode throughput in bytes/second (of *uncompressed*
    output, matching the paper's GB/s convention)."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    seconds = profile.seconds_for(summary, words_read, quant_bits, adaptive)
    return payload_bytes / seconds if seconds > 0 else float("inf")
