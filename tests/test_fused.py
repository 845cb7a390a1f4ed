"""Differential tests for the fused wide-lane decode kernel.

Every configuration pits three implementations against each other:

- ``LaneEngine.run`` — the fused kernel (head / steady-state / tail);
- ``LaneEngine.run_reference`` — the original masked per-group loop;
- ``InterleavedDecoder.decode_reference`` — the pure-Python walk.

Outputs must be bit-identical and the :class:`EngineStats` counters
must agree exactly (same iterations, same symbols decoded, same word
reads) — the fused kernel is a *re-scheduling* of the same work, not
an approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError
from repro.parallel.buffers import ScratchArena
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import StreamSegment, fuse_segments, fused_run_multi
from repro.parallel.simd import LaneEngine, ThreadTask
from repro.rans.adaptive import IndexedModelProvider, StaticModelProvider
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel

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
        engine = LaneEngine(provider, lanes, kernel=kernel_backend)
        out_f = np.empty(enc.num_symbols, dtype=np.uint8)
        out_r = np.empty(enc.num_symbols, dtype=np.uint8)
        sf = engine.run(enc.words, tasks, out_f)
        sr = engine.run_reference(enc.words, tasks, out_r)
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
        dec = RecoilDecoder(provider)
        res_f = dec.decode(
            enc.words, enc.final_states, enc.metadata,
            max_threads=threads, engine="fused",
        )
        res_r = dec.decode(
            enc.words, enc.final_states, enc.metadata,
            max_threads=threads, engine="reference",
        )
        assert np.array_equal(res_f.symbols, payload)
        assert np.array_equal(res_f.symbols, res_r.symbols)
        assert _stats_tuple(res_f.engine_stats) == _stats_tuple(
            res_r.engine_stats
        )

    def test_unknown_engine_rejected(self, payload):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=2)
        with pytest.raises(DecodeError):
            RecoilDecoder(provider).decode(
                enc.words, enc.final_states, enc.metadata, engine="cuda"
            )


class TestPooledFused:
    @pytest.mark.parametrize("workers", THREADS)
    @pytest.mark.parametrize("strategy", ["cost", "round_robin"])
    def test_pool_matches_single_engine(
        self, payload, workers, strategy, kernel_backend
    ):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=12)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, workers, strategy=strategy, kernel=kernel_backend,
        )
        assert res.kernel == kernel_backend
        assert np.array_equal(res.symbols, payload)
        assert res.workers == min(workers, len(tasks))


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
        task = ThreadTask(
            start_pos=len(enc.words) - 1,
            walk_hi=enc.num_symbols,
            walk_lo=1,
            commit_hi=200,
            commit_lo=101,
            initial_states=enc.final_states,
            check_terminal=False,
        )
        engine = LaneEngine(provider, 32, kernel=kernel_backend)
        out_f = np.zeros(enc.num_symbols, dtype=np.uint8)
        out_r = np.zeros(enc.num_symbols, dtype=np.uint8)
        sf = engine.run(enc.words, [task], out_f)
        sr = engine.run_reference(enc.words, [task], out_r)
        assert np.array_equal(out_f[100:200], payload[100:200])
        assert np.all(out_f[200:] == 0)
        assert np.array_equal(out_f, out_r)
        assert _stats_tuple(sf) == _stats_tuple(sr)

    def test_arena_reuse_across_stream_sizes(self, payload):
        """One engine instance decoding different geometries must not
        leak state between calls through its scratch arena."""
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


def _run_both(provider, lanes, words, tasks, n, kernel):
    """Decode ``tasks`` with ``kernel`` and with the reference loop.

    Either both raise :class:`DecodeError`, or outputs (zero-filled
    first, so uncommitted positions compare too) and work counters
    are identical.  Returns the kernel's ``(out, stats)``, or None
    when both raised.
    """
    engine = LaneEngine(provider, lanes, kernel=kernel)
    out_k = np.zeros(n, dtype=np.uint8)
    out_r = np.zeros(n, dtype=np.uint8)
    try:
        sr = engine.run_reference(words, tasks, out_r)
    except DecodeError:
        with pytest.raises(DecodeError):
            engine.run(words, tasks, out_k)
        return None
    sk = engine.run(words, tasks, out_k)
    assert np.array_equal(out_k, out_r)
    assert _stats_tuple(sk) == _stats_tuple(sr)
    return out_k, sk


class TestWholeWalkBatches:
    """Batches the old global steady window ``[H, S)`` could not
    cover: the compiled walk runs every task end to end, so each must
    match the reference loop exactly on both kernels."""

    def test_multi_segment_mixed_capacities(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=64)
        segments = [
            StreamSegment(
                enc.words,
                build_thread_tasks(
                    enc.metadata.combine(cap), len(enc.words),
                    enc.final_states,
                ),
                enc.num_symbols,
            )
            for cap in (1, 4, 64)
        ]
        res = fused_run_multi(
            provider, 32, segments, ScratchArena(), kernel=kernel_backend
        )
        for seg_out in res.segment_outputs():
            assert np.array_equal(seg_out, payload)
        words, tasks, _, total = fuse_segments(segments)
        out_r = np.empty(total, dtype=np.uint8)
        sr = LaneEngine(provider, 32).run_reference(words, tasks, out_r)
        assert np.array_equal(res.out, out_r)
        assert _stats_tuple(res.stats) == _stats_tuple(sr)

    def test_lane_never_activates(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider, lanes=4).encode(
            payload, num_threads=4
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        mid = tasks[1]
        mid.activations = [a for a in mid.activations if a[1] != 2]
        assert _run_both(
            provider, 4, enc.words, tasks, enc.num_symbols, kernel_backend
        )

    def test_degenerate_tasks(self, payload, kernel_backend):
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=32).encode(payload)
        full = ThreadTask(
            start_pos=len(enc.words) - 1,
            walk_hi=enc.num_symbols,
            walk_lo=1,
            commit_hi=enc.num_symbols,
            commit_lo=1,
            initial_states=enc.final_states,
            check_terminal=True,
        )
        dead = ThreadTask(
            start_pos=0, walk_hi=5, walk_lo=9, commit_hi=5, commit_lo=9
        )
        # walk_hi < walk_lo with a terminal check: no walk, only the
        # drain of lanes already at L, consuming nothing.
        empty = ThreadTask(
            start_pos=-1, walk_hi=0, walk_lo=1, commit_hi=0, commit_lo=1,
            initial_states=np.full(32, 1 << 16, dtype=np.uint64),
            check_terminal=True, terminal_pos=-1,
        )
        out, stats = _run_both(
            provider, 32, enc.words, [dead, full, empty],
            enc.num_symbols, kernel_backend,
        )
        assert np.array_equal(out, payload)
        assert stats.tasks == 3

    def test_initial_states_and_activations(self, payload, kernel_backend):
        """Lanes live from the start, then re-seeded mid-walk."""
        provider = _provider("static", payload, None)
        enc = RecoilEncoder(provider).encode(payload, num_threads=2)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        first = tasks[0]
        assert first.activations and first.initial_states is None
        first.initial_states = np.full(32, 1 << 20, dtype=np.uint64)
        # The early lanes read words the activations expected to find,
        # so the walk decodes garbage: skip the terminal check and
        # compare what both kernels make of it.
        first.check_terminal = False
        assert _run_both(
            provider, 32, enc.words, tasks, enc.num_symbols, kernel_backend
        )

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
            [StreamSegment(enc.words, tasks, enc.num_symbols)],
            ScratchArena(), kernel=kernel_backend,
        )
        out_r = np.empty(enc.num_symbols, dtype=np.uint8)
        sr = LaneEngine(adaptive_provider, 32).run_reference(
            enc.words, tasks, out_r
        )
        assert np.array_equal(res.out, payload)
        assert np.array_equal(res.out, out_r)
        assert _stats_tuple(res.stats) == _stats_tuple(sr)
