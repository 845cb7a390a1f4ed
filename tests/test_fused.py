"""Differential tests for the fused wide-lane decode kernel.

Every configuration pits three implementations against each other:

- ``fused_run`` — the fused kernel (head / steady-state / tail on
  numpy, or the compiled walk: the ``kernel_backend`` tests run both,
  the others the host's kernel);
- ``reference_walk`` — the same numpy walk with an empty steady
  window, every iteration on the masked per-group loop;
- ``InterleavedDecoder.decode_reference`` — the pure-Python walk.

Outputs must be bit-identical and the :class:`EngineStats` counters
must agree exactly (same iterations, same symbols decoded, same word
reads) — the fused kernel is a *re-scheduling* of the same work, not
an approximation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import (
    LOCKSTEP_TASKS,
    StreamSegment,
    TaskColumns,
    _lockstep_groups,
    _plan_phases,
    _stack_streams,
    fused_run,
    fused_run_multi,
    reference_walk,
)
from repro.rans.adaptive import IndexedModelProvider, StaticModelProvider
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel

from conftest import running_on

LANES = [1, 4, 32]
THREADS = [1, 2, 8]


def _stats_tuple(s):
    return (s.iterations, s.symbols_decoded, s.words_read,
            s.tasks, s.max_task_iterations)


@pytest.fixture(scope="module")
def payload():
    r = np.random.default_rng(99)
    return np.minimum(np.floor(r.exponential(9.0, 6_000)), 255).astype(
        np.uint8
    )


@pytest.fixture(scope="module")
def adaptive_provider(payload):
    """Three distinct models cycled per symbol index."""
    sym = np.arange(256, dtype=np.float64)
    models = [
        SymbolModel.from_counts(np.exp(-sym / s) * 1_000 + 1, 10)
        for s in (4.0, 12.0, 40.0)
    ]
    ids = (np.arange(len(payload)) // 7) % 3
    return IndexedModelProvider(models, ids)


def _provider(kind, payload, adaptive_provider):
    if kind == "adaptive":
        return adaptive_provider
    return StaticModelProvider(
        SymbolModel.from_data(payload, 11, alphabet_size=256)
    )


class TestFusedVsReference:
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_recoil_tasks_bit_identical(
        self, payload, adaptive_provider, lanes, threads, kind,
        kernel_backend,
    ):
        provider = _provider(kind, payload, adaptive_provider)
        enc = RecoilEncoder(provider, lanes=lanes).encode(
            payload, num_threads=threads
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        # A non-empty steady window [H, S): on numpy the kernel's
        # steady loop, not the masked loop, is what meets the
        # reference.
        _, H, S = _plan_phases(tasks, lanes)
        assert H < S
        out_f = np.empty(enc.num_symbols, dtype=np.uint8)
        out_r = np.empty(enc.num_symbols, dtype=np.uint8)
        sf = fused_run(provider, lanes, enc.words, tasks, out_f)
        sr = reference_walk(provider, lanes, enc.words, tasks, out_r)
        assert np.array_equal(out_f, payload)
        assert np.array_equal(out_r, payload)
        assert _stats_tuple(sf) == _stats_tuple(sr)

    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_full_decode_matches_pure_python(
        self, payload, adaptive_provider, lanes, kind
    ):
        provider = _provider(kind, payload, adaptive_provider)
        enc = InterleavedEncoder(provider, lanes=lanes).encode(payload)
        dec = InterleavedDecoder(provider, lanes=lanes)
        out = dec.decode(enc.words, enc.final_states, enc.num_symbols)
        ref = dec.decode_reference(
            enc.words, enc.final_states, enc.num_symbols
        )
        assert np.array_equal(out, payload)
        assert np.array_equal(ref, payload)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_recoil_decoder_engine_selector(
        self, payload, adaptive_provider, threads, kind
    ):
        provider = _provider(kind, payload, adaptive_provider)
        enc = RecoilEncoder(provider).encode(payload, num_threads=8)
        res = RecoilDecoder(provider).decode(
            enc.words, enc.final_states, enc.metadata, max_threads=threads
        )
        tasks = build_thread_tasks(
            enc.metadata.combine(threads), len(enc.words), enc.final_states
        )
        out_r = np.empty(enc.num_symbols, dtype=np.uint8)
        sr = reference_walk(provider, 32, enc.words, tasks, out_r)
        assert np.array_equal(res.symbols, payload)
        assert np.array_equal(res.symbols, out_r)
        assert _stats_tuple(res.engine_stats) == _stats_tuple(sr)


class TestPooledFused:
    @pytest.mark.parametrize("workers", THREADS)
    def test_pool_matches_single_engine(
        self, payload, workers, kernel_backend
    ):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=12)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, workers,
        )
        assert res.kernel == kernel_backend
        assert np.array_equal(res.symbols, payload)
        assert res.workers == min(workers, tasks.num_tasks)


class TestFusedEdgeCases:
    def test_empty_stream(self):
        model = SymbolModel.from_counts(
            np.array([5, 3, 2], dtype=np.uint32), 8
        )
        enc = InterleavedEncoder(model, lanes=32).encode(
            np.empty(0, dtype=np.uint8)
        )
        dec = InterleavedDecoder(model, lanes=32)
        out = dec.decode(enc.words, enc.final_states, 0)
        assert len(out) == 0

    @pytest.mark.parametrize("n", [1, 5, 31])
    def test_shorter_than_lane_count(self, payload, n):
        """N < K: a single, partial interleave group."""
        provider = _provider("static", payload, None)
        data = payload[:n]
        enc = InterleavedEncoder(provider, lanes=32).encode(data)
        dec = InterleavedDecoder(provider, lanes=32)
        out = dec.decode(enc.words, enc.final_states, n)
        ref = dec.decode_reference(enc.words, enc.final_states, n)
        assert np.array_equal(out, data)
        assert np.array_equal(out, ref)

    def test_single_partition(self, payload):
        """threads=1 metadata has no entries: one fully-initialized
        task covering the entire walk."""
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=1)
        assert enc.metadata.num_threads == 1
        res = RecoilDecoder(provider).decode(
            enc.words, enc.final_states, enc.metadata
        )
        assert np.array_equal(res.symbols, payload)

    def test_partial_commit_window(self, payload, kernel_backend):
        """Commit range strictly inside the walk: the steady window
        shrinks to the committed span, head/tail run masked."""
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=32).encode(payload)
        task = TaskColumns.build(
            32,
            start_pos=len(enc.words) - 1,
            walk_hi=enc.num_symbols,
            walk_lo=1,
            commit_hi=200,
            commit_lo=101,
            init_task=[0],
            init_states=[enc.final_states],
            check_terminal=False,
        )
        out_f = np.zeros(enc.num_symbols, dtype=np.uint8)
        out_r = np.zeros(enc.num_symbols, dtype=np.uint8)
        sf = fused_run(provider, 32, enc.words, task, out_f)
        sr = reference_walk(provider, 32, enc.words, task, out_r)
        assert np.array_equal(out_f[100:200], payload[100:200])
        assert np.all(out_f[200:] == 0)
        assert np.array_equal(out_f, out_r)
        assert _stats_tuple(sf) == _stats_tuple(sr)

    def test_arena_reuse_across_stream_sizes(self, payload):
        """Decodes of different geometries on one thread must not leak
        state between calls through the thread's arena."""
        provider = _provider("static", payload, None)
        dec = InterleavedDecoder(provider, lanes=32)
        for n in (4_096, 100, 6_000, 33):
            data = payload[:n]
            enc = InterleavedEncoder(provider, lanes=32).encode(data)
            out = dec.decode(enc.words, enc.final_states, n)
            assert np.array_equal(out, data)

    def test_corrupt_states_still_caught(self, payload):
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=32).encode(payload)
        bad = enc.final_states.copy()
        bad[0] ^= np.uint64(0x5A5A)
        dec = InterleavedDecoder(provider, lanes=32)
        with pytest.raises(DecodeError):
            dec.decode(enc.words, bad, enc.num_symbols)


def _recoil_plan(enc) -> dict:
    """The :meth:`TaskColumns.build` arguments
    :func:`build_thread_tasks` derives from ``enc``'s metadata, for
    tests to edit before building."""
    li = enc.metadata.lane_indices
    n, K = li.shape
    C = li.min(axis=1)
    lo = np.concatenate(([1], C))
    N = enc.num_symbols
    return dict(
        start_pos=np.append(enc.metadata.word_offsets, len(enc.words) - 1),
        walk_hi=np.append(li.max(axis=1), N),
        walk_lo=lo,
        commit_hi=np.append(C - 1, N),
        commit_lo=lo,
        check_terminal=lo == 1,
        init_task=np.array([n]),
        init_states=np.reshape(enc.final_states, (1, -1)),
        act_task=np.repeat(np.arange(n), K),
        act_index=li.ravel(),
        act_lane=np.tile(np.arange(K), n),
        act_state=enc.metadata.lane_states.ravel(),
    )


def _run_both(provider, lanes, words, tasks, n):
    """Decode ``tasks`` on the fused kernel and the reference loop.

    Either both raise :class:`DecodeError`, or outputs (zero-filled
    first, so uncommitted positions compare too) and work counters
    are identical.  Returns the kernel's ``(out, stats)``, or None
    when both raised.
    """
    out_k = np.zeros(n, dtype=np.uint8)
    out_r = np.zeros(n, dtype=np.uint8)
    try:
        sr = reference_walk(provider, lanes, words, tasks, out_r)
    except DecodeError:
        with pytest.raises(DecodeError):
            fused_run(provider, lanes, words, tasks, out_k)
        return None
    sk = fused_run(provider, lanes, words, tasks, out_k)
    assert np.array_equal(out_k, out_r)
    assert _stats_tuple(sk) == _stats_tuple(sr)
    return out_k, sk


def _segments(enc, capacities) -> list[StreamSegment]:
    """One segment of ``enc`` per capacity, as the service builds them."""
    return [
        StreamSegment(
            enc.words,
            build_thread_tasks(
                enc.metadata.combine(cap), len(enc.words), enc.final_states
            ),
            enc.num_symbols,
        )
        for cap in capacities
    ]


def _batch_plan(segments) -> tuple[np.ndarray, TaskColumns]:
    """The stream and plan :func:`fused_run_multi` decodes."""
    words, bases, _ = _stack_streams(segments)
    return words, TaskColumns.concat([
        (seg.columns, word_base, sym_base)
        for seg, (word_base, sym_base) in zip(segments, bases)
    ])


class TestWholeWalkBatches:
    """Batches the old global steady window ``[H, S)`` could not
    cover: the compiled walk runs every task end to end, so each must
    match the reference loop exactly on both kernels."""

    def test_multi_segment_mixed_capacities(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=64)
        segments = _segments(enc, (1, 4, 64))
        res = fused_run_multi(provider, 32, segments)
        for seg_out in res.segment_outputs():
            assert np.array_equal(seg_out, payload)
        words, plan = _batch_plan(segments)
        out_r = np.empty(3 * enc.num_symbols, dtype=np.uint8)
        sr = reference_walk(provider, 32, words, plan, out_r)
        assert np.array_equal(res.out, out_r)
        assert _stats_tuple(res.stats) == _stats_tuple(sr)

    def test_lane_never_activates(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider, lanes=4).encode(
            payload, num_threads=4
        )
        plan = _recoil_plan(enc)
        built = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(
                dataclasses.astuple(built),
                dataclasses.astuple(TaskColumns.build(4, **plan)),
            )
        )
        keep = ~((plan["act_task"] == 1) & (plan["act_lane"] == 2))
        for name in ("act_task", "act_index", "act_lane", "act_state"):
            plan[name] = plan[name][keep]
        tasks = TaskColumns.build(4, **plan)
        assert _run_both(provider, 4, enc.words, tasks, enc.num_symbols)

    def test_degenerate_tasks(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=32).encode(payload)
        # Task 0 is dead: walk_hi < walk_lo, nothing to do.  Task 1
        # walks the whole stream.  Task 2 has walk_hi < walk_lo with a
        # terminal check: no walk, only the drain of lanes already at
        # L, consuming nothing.
        tasks = TaskColumns.build(
            32,
            start_pos=[0, len(enc.words) - 1, -1],
            walk_hi=[5, enc.num_symbols, 0],
            walk_lo=[9, 1, 1],
            commit_hi=[5, enc.num_symbols, 0],
            commit_lo=[9, 1, 1],
            check_terminal=[False, True, True],
            terminal_pos=-1,
            init_task=[1, 2],
            init_states=[
                enc.final_states, np.full(32, 1 << 16, dtype=np.uint64)
            ],
        )
        out, stats = _run_both(
            provider, 32, enc.words, tasks, enc.num_symbols
        )
        assert np.array_equal(out, payload)
        assert stats.tasks == 3

    def test_initial_states_and_activations(self, payload, kernel_backend):
        """Lanes live from the start, then re-seeded mid-walk."""
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=2)
        plan = _recoil_plan(enc)
        assert list(plan["init_task"]) == [1]
        assert np.any(plan["act_task"] == 0)
        plan["init_task"] = [0, 1]
        plan["init_states"] = np.concatenate(
            ([np.full(32, 1 << 20, dtype=np.uint64)], plan["init_states"])
        )
        # The early lanes read words the activations expected to find,
        # so the walk decodes garbage: skip the terminal check and
        # compare what both kernels make of it.
        plan["check_terminal"] = plan["check_terminal"] & [False, True]
        tasks = TaskColumns.build(32, **plan)
        assert _run_both(provider, 32, enc.words, tasks, enc.num_symbols)

    def test_adaptive_segment(
        self, payload, adaptive_provider, kernel_backend
    ):
        enc = RecoilEncoder(adaptive_provider).encode(
            payload, num_threads=8
        )
        tasks = build_thread_tasks(
            enc.metadata.combine(4), len(enc.words), enc.final_states
        )
        res = fused_run_multi(
            adaptive_provider, 32,
            [StreamSegment(enc.words, tasks, enc.num_symbols)]
        )
        out_r = np.empty(enc.num_symbols, dtype=np.uint8)
        sr = reference_walk(adaptive_provider, 32, enc.words, tasks, out_r)
        assert np.array_equal(res.out, payload)
        assert np.array_equal(res.out, out_r)
        assert _stats_tuple(res.stats) == _stats_tuple(sr)


class TestLockstepGroups:
    """The numpy walk splits a plan into lockstep groups by walk length
    (at most 2x apart, at most ``LOCKSTEP_TASKS`` tasks each).  The
    split is invisible: output, counters and error messages are those
    of the ungrouped ``reference_walk`` and of the C walk."""

    @pytest.fixture(scope="class")
    def batches(self, payload):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=64)
        other = RecoilEncoder(provider).encode(
            payload[1_000:5_000], num_threads=16
        )
        one_asset = _segments(enc, (1, 4, 64))
        return provider, {
            "one_asset": one_asset,
            "two_assets": one_asset + _segments(other, (2, 16)),
            # 15 x 41 tasks: more than one group's worth.
            "over_cap": _segments(enc, (64,) * 15),
        }

    @pytest.mark.parametrize("batch", ["one_asset", "two_assets", "over_cap"])
    def test_groups_decode_as_segments_alone(self, batches, batch):
        provider, segments = batches
        segments = segments[batch]
        words, plan = _batch_plan(segments)
        groups = _lockstep_groups(plan)
        assert len(groups) >= 2
        if batch == "over_cap":
            assert len(groups[0]) == LOCKSTEP_TASKS
        with running_on("numpy"):
            res = fused_run_multi(provider, 32, segments)
            for seg, out in zip(segments, res.segment_outputs()):
                alone = fused_run_multi(provider, 32, [seg])
                assert np.array_equal(out, alone.out)
        out_r = np.empty(len(res.out), dtype=np.uint8)
        sr = reference_walk(provider, 32, words, plan, out_r)
        assert np.array_equal(res.out, out_r)
        assert _stats_tuple(res.stats) == _stats_tuple(sr)
        if compiled.kernel_available():
            c = fused_run_multi(provider, 32, segments)
            assert np.array_equal(c.out, res.out)
            assert _stats_tuple(c.stats) == _stats_tuple(res.stats)

    def test_group_bounds(self, batches):
        provider, segments = batches
        _, plan = _batch_plan(segments["one_asset"])
        lengths = plan.walk_lengths
        groups = _lockstep_groups(plan)
        assert np.array_equal(
            np.sort(np.concatenate(groups)), np.arange(plan.num_tasks)
        )
        for rows in groups:
            assert np.all(np.diff(rows) > 0)  # plan order
            assert 2 * lengths[rows].min() >= lengths[rows].max()
        # Longest walks first: the capacity-1 task walks alone.
        assert list(groups[0]) == [0]

    def test_task_cap_splits_equal_walks(self):
        plan = TaskColumns.build(
            32, start_pos=0, walk_hi=np.full(600, 64), walk_lo=1,
            commit_hi=64, commit_lo=1,
        )
        groups = _lockstep_groups(plan)
        assert [len(g) for g in groups] == [LOCKSTEP_TASKS, 600 - 512]

    @pytest.mark.parametrize("capacity", [4, 16, 64, 256])
    def test_served_plan_is_one_group(self, capacity):
        """A 200k-symbol, 256-split asset, the size perfbench serves,
        runs as one group at every capacity: no ``rows`` copy."""
        data = text_surrogate(200_000, 5.29, seed=3)
        provider = StaticModelProvider(
            SymbolModel.from_data(data, 11, alphabet_size=256)
        )
        enc = RecoilEncoder(provider).encode(data, num_threads=256)
        _, plan = _batch_plan(_segments(enc, (capacity,)))
        assert _lockstep_groups(plan) is None

    def test_corrupt_task_in_later_group_names_its_row(self, batches):
        provider, segments = batches
        segments = segments["one_asset"]
        words, plan = _batch_plan(segments)
        # The capacity-64 segment's terminal task, after the 1 + 4
        # tasks of the other two segments: not in the first group.
        row = 5 + int(np.flatnonzero(segments[2].columns.geom[:, 6])[0])
        assert row not in _lockstep_groups(plan)[0]
        geom = plan.geom.copy()
        terminal = int(geom[row, 7])
        geom[row, 7] -= 1
        bad = dataclasses.replace(plan, geom=geom)
        message = (
            f"task {row}: stream region not fully consumed "
            f"(pos {terminal}, expected {terminal - 1})"
        )
        kernels = ["numpy"]
        if compiled.kernel_available():
            kernels.append("compiled")
        for kernel in kernels:
            out = np.empty(3 * segments[0].num_symbols, dtype=np.uint8)
            with running_on(kernel), pytest.raises(DecodeError) as exc:
                fused_run(provider, 32, words, bad, out)
            assert str(exc.value) == message, kernel
