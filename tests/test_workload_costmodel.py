"""Tests for work accounting and the device cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.costmodel import (
    DeviceProfile,
    PROFILES,
    project_throughput,
)
from repro.parallel.fused import TaskColumns
from repro.parallel.workload import WorkloadSummary, summarize_tasks


def make_summary(per_task) -> WorkloadSummary:
    per = np.asarray(per_task, dtype=np.int64)
    return WorkloadSummary(
        num_tasks=len(per),
        payload_symbols=int(per.sum()),
        overhead_symbols=0,
        per_task_symbols=per,
    )


class TestWorkload:
    def test_summarize_tasks(self):
        tasks = TaskColumns.build(
            32, start_pos=0, walk_hi=[100, 220], walk_lo=[1, 81],
            commit_hi=[80, 220], commit_lo=[1, 81],
        )
        s = summarize_tasks(tasks)
        assert s.num_tasks == 2
        assert s.payload_symbols == 80 + 140
        assert s.total_symbols == 100 + 140
        assert s.overhead_symbols == 20

    def test_makespan_single_worker(self):
        s = make_summary([10, 20, 30])
        assert s.makespan_symbols(1) == 60

    def test_makespan_enough_workers(self):
        s = make_summary([10, 20, 30])
        assert s.makespan_symbols(3) == 30
        assert s.makespan_symbols(10) == 30

    def test_makespan_lpt(self):
        """LPT packs 4 tasks of 3,3,2,2 onto 2 workers as 5/5."""
        s = make_summary([3, 3, 2, 2])
        assert s.makespan_symbols(2) == 5

    def test_makespan_monotone_in_workers(self):
        r = np.random.default_rng(0)
        s = make_summary(r.integers(1, 100, 50))
        spans = [s.makespan_symbols(w) for w in (1, 2, 4, 8, 16)]
        assert spans == sorted(spans, reverse=True)

    def test_makespan_bad_workers(self):
        with pytest.raises(ValueError):
            make_summary([1]).makespan_symbols(0)

    def test_imbalance(self):
        assert make_summary([10, 10, 10]).imbalance == pytest.approx(1.0)
        assert make_summary([30, 10, 20]).imbalance == pytest.approx(1.5)

    def test_empty(self):
        s = make_summary([])
        assert s.makespan_symbols(4) == 0.0
        assert s.imbalance == 1.0
        assert s.overhead_fraction == 0.0


class TestCostModel:
    def test_profiles_exist(self):
        for name in (
            "cpu-avx512", "cpu-avx2", "cpu-single-thread",
            "cpu-single-thread-avx2", "gpu-turing", "gpu-turing-multians",
        ):
            assert name in PROFILES

    def test_parallel_beats_serial(self):
        s = make_summary([1000] * 16)
        fast = PROFILES["cpu-avx512"].seconds_for(s, 0, 11)
        slow = PROFILES["cpu-single-thread"].seconds_for(s, 0, 11)
        assert slow > 10 * fast

    def test_n16_penalty(self):
        s = make_summary([10_000] * 16)
        p = PROFILES["cpu-avx512"]
        assert p.seconds_for(s, 0, 16) > p.seconds_for(s, 0, 11)

    def test_word_reads_cost(self):
        s = make_summary([10_000] * 16)
        p = PROFILES["cpu-avx512"]
        assert p.seconds_for(s, 100_000, 11) > p.seconds_for(s, 0, 11)

    def test_avx512_beats_avx2(self):
        s = make_summary([10_000] * 16)
        assert (
            PROFILES["cpu-avx512"].seconds_for(s, 0, 11)
            < PROFILES["cpu-avx2"].seconds_for(s, 0, 11)
        )

    def test_projection_by_name_or_object(self):
        s = make_summary([1000] * 4)
        a = project_throughput("cpu-avx2", s, 0, 11, 4000)
        b = project_throughput(PROFILES["cpu-avx2"], s, 0, 11, 4000)
        assert a == b
        assert a > 0

    def test_straggler_hurts(self):
        """One long task caps throughput even with many workers —
        exactly why the split heuristic balances symbol counts."""
        balanced = make_summary([100_000] * 16)
        straggler = make_summary([100_000] * 15 + [800_000])
        p = PROFILES["cpu-avx512"]
        assert (
            p.seconds_for(straggler, 0, 11)
            > 3 * p.seconds_for(balanced, 0, 11)
        )

    def test_calibration_anchors(self):
        """Sanity-pin the paper-scale anchors: 10 MB text decodes at
        ~0.7 GB/s single-thread and ~8-13 GB/s on 16 cores (AVX512)."""
        n = 10_000_000
        single = make_summary([n])
        st = project_throughput(
            "cpu-single-thread", single, int(0.33 * n), 11, n
        )
        assert 0.4e9 < st < 1.3e9
        sixteen = make_summary([n // 16] * 16)
        cpu = project_throughput(
            "cpu-avx512", sixteen, int(0.33 * n), 11, n
        )
        assert 6e9 < cpu < 14e9
        gpu_tasks = make_summary([n // 2176] * 2176)
        gpu = project_throughput(
            "gpu-turing", gpu_tasks, int(0.33 * n), 11, n
        )
        assert 50e9 < gpu < 130e9
