"""Low-level tests for the fused decode entry point, ``fused_run``:
every decoder thread of a plan advanced as one batch of lanes, and the
packed table the C walk's SIMD body gathers from."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.fused import TaskColumns, fused_run
from repro.rans.adaptive import StaticModelProvider
from repro.rans.interleaved import InterleavedEncoder
from repro.rans.model import SymbolModel

from walk_bodies import c_walks


@pytest.fixture(scope="module")
def enc(skewed_bytes, model11):
    return InterleavedEncoder(model11, lanes=32).encode(
        skewed_bytes[:10_000], record_events=True
    )


def full_task(enc, check=True, **changes) -> TaskColumns:
    """One task walking the whole stream from its final states, with
    any plan argument overridden by ``changes``."""
    plan = dict(
        start_pos=len(enc.words) - 1,
        walk_hi=enc.num_symbols,
        walk_lo=1,
        commit_hi=enc.num_symbols,
        commit_lo=1,
        init_task=[0],
        init_states=[enc.final_states],
        check_terminal=check,
        terminal_pos=-1,
    )
    return TaskColumns.build(32, **{**plan, **changes})


class TestEngineBasics:
    def test_full_stream_task(self, enc, provider11, skewed_bytes):
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        stats = fused_run(provider11, 32, enc.words, full_task(enc), out)
        assert np.array_equal(out, skewed_bytes[:10_000])
        assert stats.symbols_decoded == enc.num_symbols
        assert stats.words_read == len(enc.words)
        assert stats.tasks == 1

    def test_empty_task_list(self, enc, provider11):
        out = np.empty(0, dtype=np.uint8)
        empty = TaskColumns.build(
            32, start_pos=[], walk_hi=[], walk_lo=[], commit_hi=[],
            commit_lo=[],
        )
        stats = fused_run(provider11, 32, enc.words, empty, out)
        assert stats.iterations == 0

    def test_commit_window(self, enc, provider11, skewed_bytes):
        """Only the commit range is written."""
        t = full_task(enc, check=False, commit_lo=101, commit_hi=200)
        out = np.zeros(enc.num_symbols, dtype=np.uint8)
        fused_run(provider11, 32, enc.words, t, out)
        assert np.array_equal(out[100:200], skewed_bytes[100:200])
        assert np.all(out[200:] == 0)

    def test_bad_initial_states_shape(self, enc, provider11):
        with pytest.raises(DecodeError, match=r"shape \(32,\)"):
            full_task(enc, init_states=[np.zeros(7, dtype=np.uint64)])

    def test_start_pos_out_of_range(self, enc, provider11):
        t = full_task(enc, start_pos=len(enc.words))
        with pytest.raises(DecodeError, match="beyond stream"):
            fused_run(
                provider11, 32, enc.words, t,
                np.empty(enc.num_symbols, dtype=np.uint8)
            )

    def test_activation_outside_walk_rejected(self, enc, provider11):
        with pytest.raises(DecodeError, match="outside walk range"):
            TaskColumns.build(
                32, start_pos=10, walk_hi=100, walk_lo=50,
                commit_hi=100, commit_lo=50,
                act_task=[0], act_index=[101], act_lane=[0],
                act_state=[1234],
            )

    def test_terminal_check_catches_bad_state(self, enc, provider11):
        bad = np.asarray(enc.final_states).copy()
        bad[3] ^= 0x77
        t = full_task(enc, init_states=[bad])
        with pytest.raises(DecodeError):
            fused_run(
                provider11, 32, enc.words, t,
                np.empty(enc.num_symbols, dtype=np.uint8)
            )


class TestEngineStats:
    def test_lane_utilization(self, skewed_bytes, model11):
        """Batched tasks keep lanes busy; utilization reflects it."""
        enc = RecoilEncoder(model11).encode(
            skewed_bytes[:20_000], num_threads=16
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        stats = fused_run(
            StaticModelProvider(model11), 32, enc.words, tasks, out
        )
        assert 0 < stats.lane_utilization <= 32
        assert stats.max_task_iterations <= stats.iterations

    def test_batched_iterations_far_below_serial(
        self, skewed_bytes, model11
    ):
        """The GPU effect: iterations shrink ~linearly with tasks."""
        provider = StaticModelProvider(model11)
        data = skewed_bytes[:20_000]
        enc1 = RecoilEncoder(model11).encode(data, num_threads=1)
        enc16 = RecoilEncoder(model11).encode(data, num_threads=16)
        out = np.empty(len(data), dtype=np.uint8)
        s1 = fused_run(
            provider, 32, enc1.words,
            build_thread_tasks(enc1.metadata, len(enc1.words),
                               enc1.final_states),
            out
        )
        s16 = fused_run(
            provider, 32, enc16.words,
            build_thread_tasks(enc16.metadata, len(enc16.words),
                               enc16.final_states),
            out
        )
        assert s16.iterations < s1.iterations / 8


class TestSynchronizationPhase:
    def test_uninitialized_lanes_never_read(self, skewed_bytes, model11):
        """Offset-alignment invariant (§4.1.1): total reads by a split
        thread equal the encode-side words in its region — if an
        uninitialized lane ever read, terminal checks downstream would
        explode.  We verify by decoding each thread alone."""
        enc = RecoilEncoder(model11).encode(
            skewed_bytes[:20_000], num_threads=8
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        provider = StaticModelProvider(model11)
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        for t in range(tasks.num_tasks):
            fused_run(provider, 32, enc.words, tasks.rows([t]), out)
        # After running all tasks separately, every commit range is
        # present and correct.
        assert np.array_equal(out, skewed_bytes[:20_000])

    def test_threads_decode_independently_any_order(
        self, skewed_bytes, model11
    ):
        """Recoil threads share nothing: running them in reverse order
        (or any order) yields identical output."""
        enc = RecoilEncoder(model11).encode(
            skewed_bytes[:20_000], num_threads=8
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        provider = StaticModelProvider(model11)
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        for t in reversed(range(tasks.num_tasks)):
            fused_run(provider, 32, enc.words, tasks.rows([t]), out)
        assert np.array_equal(out, skewed_bytes[:20_000])


class TestSimdBody:
    """The packed table, and that the served default reaches the C
    walk's SIMD body (DESIGN.md §19)."""

    @pytest.mark.skipif(
        not compiled.avx2_host(), reason="the C walk has no SIMD body here"
    )
    def test_served_default_runs_simd_groups(self):
        """A 200k-symbol capacity-16 decode of the served default
        (K=32, static n=11, bytes) runs most groups on the SIMD body:
        a silently disabled body fails here, not only in a benchmark."""
        data = text_surrogate(200_000, target_entropy=5.29, seed=8)
        model = SymbolModel.from_data(data, 11, alphabet_size=256)
        enc = RecoilEncoder(model).encode(data, num_threads=64)
        with c_walks() as calls:
            res = RecoilDecoder(model).decode(
                enc.words, enc.final_states, enc.metadata, max_threads=16
            )
        assert np.array_equal(res.symbols, data)
        (groups,) = calls
        assert groups > 0.9 * res.engine_stats.symbols_decoded / 32

    def test_packed_table_fields(self, provider11):
        """``freq | bias << 12 | sym << 24`` per slot, exactly the
        uint64 tables' entries."""
        tables = provider11.decode_tables
        packed = tables.packed.astype(np.uint64)
        assert tables.packed.dtype == np.uint32
        assert np.array_equal(packed & 0xFFF, tables.freq_slot)
        assert np.array_equal(packed >> 12 & 0xFFF, tables.bias_slot)
        assert np.array_equal(packed >> 24, tables.sym_u64)

    def test_packed_table_only_up_to_n12(self):
        """A flat model's fields fit at any n, but the table (so the
        SIMD body) stops at n = 12, the last level a committed
        benchmark row shows the body winning at."""
        for n in (8, 11, 12, 13, 16):
            tables = StaticModelProvider(
                SymbolModel.uniform(256, n)
            ).decode_tables
            assert int(tables.freq_slot.max()) <= 0xFFF
            assert (tables.packed is not None) == (n <= 12), n

    def test_no_packed_table_when_a_field_overflows(self, skewed_bytes):
        """No table (so no SIMD body) unless every entry fits: a
        frequency above 12 bits, or a symbol above 255."""
        n16 = StaticModelProvider(
            SymbolModel.from_data(skewed_bytes, 16, alphabet_size=256)
        )
        assert int(n16.decode_tables.freq_slot.max()) > 0xFFF
        assert n16.decode_tables.packed is None
        wide = np.arange(300, dtype=np.uint16).repeat(4)
        provider = StaticModelProvider(
            SymbolModel.from_data(wide, 11, alphabet_size=300)
        )
        assert provider.decode_tables.packed is None
