"""Tests for pooled decoding on real threads.

One parametrized suite covers
:func:`repro.parallel.executor.decode_with_pool` on both kinds of
host — bit-identical output, the kernel it reports, stats coverage,
and the edge cases: zero tasks, a single task, more workers than
tasks, corrupt task metadata.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError, ParallelismError
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import TaskColumns

from conftest import needs_compiled

#: the thread pool on each kernel (``kernel_backend`` params); the ids
#: name the pool and kernel.
KERNELS = [
    pytest.param("numpy", id="thread"),
    pytest.param("compiled", id="thread+compiled", marks=needs_compiled),
]


@pytest.fixture(scope="module")
def encoded(skewed_bytes, model11):
    return RecoilEncoder(model11).encode(skewed_bytes, num_threads=24)


@pytest.fixture(scope="module")
def tasks(encoded):
    return build_thread_tasks(
        encoded.metadata, len(encoded.words), encoded.final_states
    )


@pytest.fixture(scope="module")
def single_task(encoded):
    md = encoded.metadata.combine(1)
    return build_thread_tasks(md, len(encoded.words), encoded.final_states)


@pytest.mark.parametrize("kernel_backend", KERNELS, indirect=True)
class TestPoolDecode:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_roundtrip(
        self, encoded, tasks, provider11, skewed_bytes, workers,
        kernel_backend,
    ):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, workers,
        )
        assert np.array_equal(res.symbols, skewed_bytes)
        assert res.workers == min(workers, tasks.num_tasks)
        assert res.kernel == kernel_backend

    def test_stats_cover_all_work(
        self, encoded, tasks, provider11, kernel_backend
    ):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 4,
        )
        assert len(res.per_worker_stats) == res.workers
        assert res.total_symbols_decoded >= encoded.num_symbols

    def test_more_workers_than_tasks(self, encoded, tasks, provider11,
                                     skewed_bytes, kernel_backend):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 100,
        )
        assert res.workers == tasks.num_tasks
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_single_task(self, encoded, single_task, provider11,
                         skewed_bytes, kernel_backend):
        assert single_task.num_tasks == 1
        res = decode_with_pool(
            provider11, 32, encoded.words, single_task,
            encoded.num_symbols, np.uint8, 4,
        )
        assert res.workers == 1
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_zero_tasks(self, encoded, tasks, provider11, kernel_backend):
        empty = tasks.rows([])
        res = decode_with_pool(
            provider11, 32, encoded.words, empty, 0, np.uint8, 4
        )
        assert res.workers == 0
        assert res.per_worker_stats == []
        assert res.symbols.shape == (0,)

    def test_corrupt_metadata_raises_decode_error(
        self, encoded, tasks, provider11, kernel_backend
    ):
        # The first thread's task, its start moved past the stream.
        md = encoded.metadata
        _, walk_hi, walk_lo, commit_hi, commit_lo = tasks.geom[0, :5]
        bad = TaskColumns.build(
            32,
            start_pos=len(encoded.words) + 5,
            walk_hi=walk_hi,
            walk_lo=walk_lo,
            commit_hi=commit_hi,
            commit_lo=commit_lo,
            check_terminal=True,
            act_task=np.zeros(32, dtype=np.int64),
            act_index=md.lane_indices[0],
            act_lane=np.arange(32),
            act_state=md.lane_states[0],
        )
        with pytest.raises(DecodeError, match="beyond stream"):
            decode_with_pool(
                provider11, 32, encoded.words, bad,
                encoded.num_symbols, np.uint8, 2,
            )

    def test_zero_workers_rejected(
        self, encoded, tasks, provider11, kernel_backend
    ):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, 0,
            )

    def test_negative_workers_rejected(self, encoded, tasks, provider11,
                                       kernel_backend):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, -3,
            )


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 24, 30])
def test_buckets_carry_the_projected_makespan(tasks, workers):
    """The pool's buckets and the cost model's makespan come from one
    LPT schedule: every task lands once, and the heaviest bucket is
    the makespan the device projection uses."""
    from repro.parallel.costmodel import assign_tasks, estimate_task_symbols
    from repro.parallel.workload import summarize_tasks

    weights = estimate_task_symbols(tasks)
    buckets = assign_tasks(tasks, workers)
    rows = np.concatenate(buckets)
    assert sorted(rows.tolist()) == list(range(tasks.num_tasks))
    assert max(int(weights[b].sum()) for b in buckets) == (
        summarize_tasks(tasks).makespan_symbols(workers)
    )
