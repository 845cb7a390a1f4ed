"""Ablation benches for Recoil's design choices.

Each ablation isolates one decision the paper motivates and measures
what it buys, on the bench payload:

1. **Lemma 3.1 (16-bit states)** — vs storing raw 32-bit states.
2. **§4.3 difference coding** — vs naive fixed-width metadata.
3. **§4.2 heuristic H(t, ts)** — vs taking the event nearest each
   ideal boundary (window=1 disables the search).
4. **32-way interleaving (Table 3)** — lane-count sweep: compression
   overhead and batched-decode iteration counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.core.serialization import metadata_size_bytes
from repro.core.splitter import SplitSelector
from repro.parallel.fused import fused_run
from repro.rans.adaptive import StaticModelProvider
from repro.rans.interleaved import InterleavedEncoder


@pytest.fixture(scope="module")
def encoded(bench_bytes, bench_model):
    return RecoilEncoder(bench_model).encode(bench_bytes, num_threads=256)


class TestStateWidthAblation:
    def test_16bit_states_halve_metadata(self, encoded):
        """Lemma 3.1 payoff: the dominant metadata term is the per-lane
        state; bounding it to 16 bits saves ~2 bytes x 32 lanes per
        split vs naive 32-bit storage."""
        md = encoded.metadata
        actual = metadata_size_bytes(md)
        naive_state_bytes = 4 * md.lane_states.size
        packed_state_bytes = 2 * md.lane_states.size
        saved = naive_state_bytes - packed_state_bytes
        # The whole serialized metadata is smaller than what the naive
        # states alone would cost.
        assert actual < naive_state_bytes
        assert saved == 64 * len(md.word_offsets)


class TestDifferenceCodingAblation:
    def test_difference_coding_beats_naive(self, encoded):
        """§4.3 payoff vs a naive layout (u32 offset + u32 max-index +
        32 x (u16 state + u32 symbol index) per split)."""
        md = encoded.metadata
        actual = metadata_size_bytes(md)
        naive = len(md.word_offsets) * (4 + 4 + md.lanes * (2 + 4))
        assert actual < 0.55 * naive

    def test_size_scales_linearly_with_entries(self, encoded):
        md = encoded.metadata
        half = md.combine(len(md.word_offsets) // 2 + 1)
        full_size = metadata_size_bytes(md)
        half_size = metadata_size_bytes(half)
        ratio = half_size / full_size
        assert 0.35 < ratio < 0.65


class TestHeuristicAblation:
    def test_heuristic_improves_balance_or_sync(self, encoded, bench_bytes):
        """Def 4.1 vs nearest-event splitting: the heuristic must not
        lose on the combined objective |t-T| + |t-ts-T|."""
        ev = encoded
        naive_sel = SplitSelector(
            ev_events := _events(bench_bytes, ev), 32, len(bench_bytes),
            window=1,
        )
        smart_sel = SplitSelector(
            ev_events, 32, len(bench_bytes), window=64
        )
        _, naive_stats = naive_sel.select(64)
        _, smart_stats = smart_sel.select(64)
        # Greedy selection is not pointwise monotone in the window
        # (earlier choices shift later targets), but the heuristic must
        # never be meaningfully worse than nearest-event splitting.
        assert (
            smart_stats.mean_heuristic_cost
            <= naive_stats.mean_heuristic_cost * 1.10
        )

    def test_bench_split_selection(self, benchmark, bench_bytes, encoded):
        """Split selection must stay cheap (server-side, per asset)."""
        events = _events(bench_bytes, encoded)
        sel = SplitSelector(events, 32, len(bench_bytes))
        md, stats = benchmark(sel.select, 256)
        assert stats.achieved_threads > 128


def _events(bench_bytes, encoded):
    # Re-derive events from a fresh encode (RecoilEncoded drops them).
    from repro.rans.interleaved import InterleavedEncoder
    from repro.rans.model import SymbolModel

    model = SymbolModel.from_data(bench_bytes, 11, alphabet_size=256)
    return InterleavedEncoder(model).encode(
        bench_bytes, record_events=True
    ).events


class TestLaneCountAblation:
    @pytest.mark.parametrize("lanes", [8, 16, 32, 64])
    def test_lane_sweep_roundtrip_and_overhead(
        self, bench_bytes, bench_model, lanes
    ):
        """More lanes: more final-state overhead, fewer engine
        iterations (more SIMD parallelism) — Table 3 picks 32 as the
        warp-sized sweet spot."""
        enc = RecoilEncoder(bench_model, lanes=lanes).encode(
            bench_bytes, num_threads=16
        )
        res = RecoilDecoder(bench_model, lanes=lanes).decode(
            enc.words, enc.final_states, enc.metadata
        )
        assert np.array_equal(res.symbols, bench_bytes)

    def test_iterations_scale_inverse_with_lanes(
        self, bench_bytes, bench_model
    ):
        provider = StaticModelProvider(bench_model)
        iters = {}
        for lanes in (8, 32):
            enc = RecoilEncoder(bench_model, lanes=lanes).encode(
                bench_bytes, num_threads=16
            )
            tasks = build_thread_tasks(
                enc.metadata, len(enc.words), enc.final_states
            )
            out = np.empty(len(bench_bytes), dtype=np.uint8)
            stats = fused_run(provider, lanes, enc.words, tasks, out)
            iters[lanes] = stats.iterations
        assert iters[32] < iters[8] / 2.5

    @pytest.mark.parametrize("lanes", [8, 32])
    def test_bench_decode_by_lanes(
        self, benchmark, bench_bytes, bench_model, lanes
    ):
        provider = StaticModelProvider(bench_model)
        enc = RecoilEncoder(bench_model, lanes=lanes).encode(
            bench_bytes, num_threads=16
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )

        def decode():
            out = np.empty(len(bench_bytes), dtype=np.uint8)
            fused_run(provider, lanes, enc.words, tasks, out)
            return out

        out = benchmark(decode)
        assert np.array_equal(out, bench_bytes)
