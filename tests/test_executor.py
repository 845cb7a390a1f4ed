"""Tests for pooled decoding on real threads.

One parametrized suite covers both kernels of
:func:`repro.parallel.executor.decode_with_pool` — bit-identical
output, stats coverage, and the edge cases: zero tasks, a single task,
more workers than tasks, corrupt task metadata.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError, ParallelismError
from repro.parallel.executor import decode_with_pool

from conftest import needs_compiled

#: the thread pool on each kernel; the ids name the pool and kernel.
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


@pytest.mark.parametrize("kernel", KERNELS)
class TestPoolDecode:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_roundtrip(
        self, encoded, tasks, provider11, skewed_bytes, workers, kernel
    ):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, workers, kernel=kernel,
        )
        assert np.array_equal(res.symbols, skewed_bytes)
        assert res.workers == min(workers, len(tasks))
        assert res.kernel == kernel

    def test_stats_cover_all_work(self, encoded, tasks, provider11, kernel):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 4, kernel=kernel,
        )
        assert len(res.per_worker_stats) == res.workers
        assert res.total_symbols_decoded >= encoded.num_symbols

    def test_more_workers_than_tasks(self, encoded, tasks, provider11,
                                     skewed_bytes, kernel):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 100, kernel=kernel,
        )
        assert res.workers == len(tasks)
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_single_task(self, encoded, single_task, provider11,
                         skewed_bytes, kernel):
        assert len(single_task) == 1
        res = decode_with_pool(
            provider11, 32, encoded.words, single_task,
            encoded.num_symbols, np.uint8, 4, kernel=kernel,
        )
        assert res.workers == 1
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_zero_tasks(self, encoded, provider11, kernel):
        res = decode_with_pool(
            provider11, 32, encoded.words, [], 0, np.uint8, 4,
            kernel=kernel,
        )
        assert res.workers == 0
        assert res.per_worker_stats == []
        assert res.symbols.shape == (0,)

    def test_corrupt_metadata_raises_decode_error(
        self, encoded, tasks, provider11, kernel
    ):
        bad = [replace(tasks[0], start_pos=len(encoded.words) + 5)]
        with pytest.raises(DecodeError):
            decode_with_pool(
                provider11, 32, encoded.words, bad,
                encoded.num_symbols, np.uint8, 2, kernel=kernel,
            )

    def test_zero_workers_rejected(self, encoded, tasks, provider11, kernel):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, 0, kernel=kernel,
            )

    def test_negative_workers_rejected(self, encoded, tasks, provider11,
                                       kernel):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, -3, kernel=kernel,
            )

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_round_robin_strategy_roundtrip(
        self, encoded, tasks, provider11, skewed_bytes, workers, kernel
    ):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, workers,
            strategy="round_robin", kernel=kernel,
        )
        assert np.array_equal(res.symbols, skewed_bytes)
        assert res.workers == min(workers, len(tasks))

    def test_unknown_strategy_rejected(self, encoded, tasks, provider11,
                                       kernel):
        with pytest.raises(ValueError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, 2,
                strategy="alphabetical", kernel=kernel,
            )


class TestBackendSelection:
    def test_round_robin_deals_cyclically(self, tasks):
        from repro.parallel.costmodel import assign_tasks

        buckets = assign_tasks(tasks, 3, strategy="round_robin")
        assert [len(b) for b in buckets] == [
            len(tasks[i::3]) for i in range(3)
        ]
        assert buckets[1][0] is tasks[1]

    def test_unknown_backend_rejected(self, encoded, tasks, provider11):
        # Retired pool strings are unknown kernels too.
        for kernel in ("gpu", "process", "thread+compiled", "fused"):
            with pytest.raises(ParallelismError):
                decode_with_pool(
                    provider11, 32, encoded.words, tasks,
                    encoded.num_symbols, np.uint8, 2, kernel=kernel,
                )
