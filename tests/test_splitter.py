"""Tests for split selection (§4.1 backward scan + §4.2 heuristic)."""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from conftest import needs_compiled, running_on
from repro.core import splitter
from repro.core.decoder import build_thread_tasks
from repro.core.splitter import SplitSelector
from repro.errors import MetadataError
from repro.parallel import compiled
from repro.rans.constants import L_BOUND
from repro.rans.interleaved import InterleavedEncoder, RenormEvents
from repro.rans.model import SymbolModel


@pytest.fixture(scope="module")
def encoded(skewed_bytes, model11):
    return InterleavedEncoder(model11, lanes=32).encode(
        skewed_bytes, record_events=True
    )


@pytest.fixture(scope="module")
def selector(encoded):
    return SplitSelector(encoded.events, 32, encoded.num_symbols)


class TestSelection:
    def test_requested_threads_achieved(self, selector):
        md, stats = selector.select(16)
        assert md.num_threads == 16
        assert stats.achieved_threads == 16

    def test_entries_validate(self, selector):
        md, _ = selector.select(32)
        md.validate()  # ordering/overlap invariants

    def test_single_thread_no_entries(self, selector):
        md, _ = selector.select(1)
        assert md.num_threads == 1
        assert md.word_offsets.shape == (0,)
        assert md.lane_indices.shape == md.lane_states.shape == (0, 32)

    def test_zero_threads_rejected(self, selector):
        with pytest.raises(MetadataError):
            selector.select(0)

    def test_workload_balanced(self, selector, encoded):
        """Per-thread committed symbols within 3x of the ideal."""
        md, _ = selector.select(20)
        tasks = build_thread_tasks(md, md.num_words, encoded.final_states)
        sizes = tasks.geom[:, 3] - tasks.geom[:, 4] + 1
        ideal = encoded.num_symbols / 20
        assert max(sizes) < 3 * ideal
        assert min(sizes) > ideal / 3

    def test_sync_sections_short(self, selector, encoded):
        """Sync sections stay at a few interleave groups each — the
        heuristic's second objective (§4.2)."""
        md, stats = selector.select(32)
        mean_sync = stats.total_sync_symbols / max(len(md.word_offsets), 1)
        assert mean_sync < 8 * 32  # a handful of groups of K=32

    def test_entry_states_bounded(self, selector):
        md, _ = selector.select(16)
        assert np.all(md.lane_states < L_BOUND)  # Lemma 3.1

    def test_entry_lane_indices_belong_to_lanes(self, selector):
        md, _ = selector.select(16)
        lanes = np.broadcast_to(np.arange(32), md.lane_indices.shape)
        assert np.array_equal((md.lane_indices - 1) % 32, lanes)

    def test_split_lane_is_max_index(self, selector, encoded):
        """The split event's own lane carries the maximum index (the
        backward scan starts there)."""
        md, _ = selector.select(16)
        ev_sym = np.asarray(encoded.events.symbol_index, dtype=np.int64)
        ev_lane = np.asarray(encoded.events.lane)
        for k, indices in zip(md.word_offsets, md.lane_indices):
            # k: event id == word position
            lane = int(ev_lane[k])
            assert indices[lane] == indices.max()
            assert indices.max() == int(ev_sym[k]) - 32

    def test_more_threads_more_sync_overhead(self, selector):
        _, s8 = selector.select(8)
        _, s64 = selector.select(64)
        assert s64.total_sync_symbols > s8.total_sync_symbols

    def test_oversubscribed_request_degrades_gracefully(
        self, skewed_bytes, model11
    ):
        """Asking for more threads than events can support returns
        fewer entries, never corrupt ones."""
        tiny = skewed_bytes[:600]
        enc = InterleavedEncoder(model11, lanes=32).encode(
            tiny, record_events=True
        )
        sel = SplitSelector(enc.events, 32, enc.num_symbols)
        md, stats = sel.select(64)
        assert md.num_threads <= 64
        md.validate()

    def test_empty_events(self, model11):
        enc = InterleavedEncoder(model11, lanes=32).encode(
            np.zeros(0, dtype=np.uint8), record_events=True
        )
        sel = SplitSelector(enc.events, 32, 0)
        md, _ = sel.select(8)
        assert md.num_threads == 1
        assert md.lane_indices.shape == (0, 32)


class TestHeuristic:
    def test_heuristic_prefers_balance(self, encoded):
        """Def 4.1: chosen splits are near the ideal boundaries."""
        sel = SplitSelector(encoded.events, 32, encoded.num_symbols)
        M = 10
        md, _ = sel.select(M)
        T = encoded.num_symbols / M
        splits = md.lane_indices.max(axis=1)
        for k, split in enumerate(splits, start=1):
            assert abs(split - k * T) < T

    def test_wider_window_not_worse(self, encoded):
        narrow = SplitSelector(
            encoded.events, 32, encoded.num_symbols, window=8
        )
        wide = SplitSelector(
            encoded.events, 32, encoded.num_symbols, window=128
        )
        _, sn = narrow.select(16)
        _, sw = wide.select(16)
        # Greedy: wider windows win on average but not pointwise.
        assert sw.mean_heuristic_cost <= sn.mean_heuristic_cost * 1.10


# ---------------------------------------------------------------------------
# Spec oracle: Definition 4.1 written out per boundary and per candidate.
# ---------------------------------------------------------------------------


def _oracle_select(events, K: int, N: int, num_threads: int, window: int):
    """Plain-Python split selection, straight from §4.1-4.2: per ideal
    boundary, every candidate in the window gets a backward scan for
    each lane's last event, the validity rules and the Def 4.1 cost;
    the first minimum wins and becomes the next ``prev_S``.  Returns
    ``(entries, costs)``, entries as ``(word_offset, indices,
    states)``."""
    sym = [int(s) - K for s in events.symbol_index]  # metadata indices
    lane = [int(v) for v in events.lane]
    state = [int(v) for v in events.state_after]
    E = len(sym)
    if num_threads == 1 or E == 0 or N <= K:
        return [], []
    T = -(-N // num_threads)
    entries, costs, prev_S = [], [], 0
    for t in range(1, num_threads):
        ideal = t * T
        if ideal >= N:
            break
        center = bisect.bisect_left(sym, ideal)  # sym is increasing
        lo = max(0, center - window // 2)
        best = None
        for c in range(lo, min(E, lo + window)):
            last = [None] * K  # each lane's last event at or before c
            found = 0
            for k in range(c, -1, -1):
                if last[lane[k]] is None:
                    last[lane[k]] = k
                    found += 1
                    if found == K:
                        break
            if found < K:
                continue
            idx = [sym[k] for k in last]
            S, C = max(idx), min(idx)
            if C < 1 or C <= prev_S or S <= prev_S or S >= N:
                continue
            t_sym, ts = S - prev_S, S - C + 1
            cost = abs(t_sym - T) + abs(t_sym - ts - T)
            if best is None or cost < best[0]:
                best = (cost, c, last, S)
        if best is None:
            continue
        cost, c, last, prev_S = best
        entries.append((c, [sym[k] for k in last], [state[k] for k in last]))
        costs.append(float(cost))
    return entries, costs


def _oracle_case(lanes: int, n: int, seed: int):
    r = np.random.default_rng(seed)
    data = np.minimum(np.floor(r.exponential(9.0, n)), 255).astype(np.uint8)
    model = SymbolModel.from_data(data, 11, alphabet_size=256)
    return InterleavedEncoder(model, lanes=lanes).encode(
        data, record_events=True
    )


#: (lanes, symbols) per grid input: short streams give E < window and
#: N <= K; dense split counts give overlapping candidate windows.
_ORACLE_INPUTS = {1: (6, 40, 3_000), 4: (3, 90, 6_000), 32: (20, 300, 12_000)}


@pytest.mark.parametrize("lanes", sorted(_ORACLE_INPUTS))
@pytest.mark.parametrize("splits", [2, 16, 256, 1024])
@pytest.mark.parametrize("window", [1, 7, 48])
def test_select_matches_definition_oracle(lanes, splits, window):
    for n in _ORACLE_INPUTS[lanes]:
        enc = _oracle_case(lanes, n, seed=7 * lanes + n)
        _assert_matches_oracle(enc, lanes, splits, window, _host_kernels())


def test_select_matches_oracle_at_ingest_shape():
    """The served write path: 150k symbols, K=32, 256 splits."""
    enc = _oracle_case(32, 150_000, seed=150)
    _assert_matches_oracle(enc, 32, 256, 48, _host_kernels())


def test_select_matches_oracle_across_scan_blocks(monkeypatch):
    """The numpy scan's boundary blocks carry ``prev_S`` across: many
    small blocks choose exactly what one block does."""
    monkeypatch.setattr(splitter, "_SCAN_CELLS", 100)
    for lanes, splits, window in ((32, 256, 48), (4, 1024, 7)):
        enc = _oracle_case(lanes, 6_000, seed=lanes)
        _assert_matches_oracle(enc, lanes, splits, window, ["numpy"])


#: (lanes, symbols, splits, window) of the C-vs-numpy differential:
#: E < window, N <= K, dense splits whose windows overlap, and the
#: served shape, at K = 1, 4 and 32.
_SCAN_CASES = [
    (1, 30, 8, 48),
    (1, 3_000, 1024, 48),
    (4, 4, 16, 48),
    (4, 60, 4, 48),
    (4, 6_000, 1024, 7),
    (32, 32, 8, 48),
    (32, 200, 64, 48),
    (32, 12_000, 1024, 48),
    (32, 40_000, 256, 48),
    (32, 40_000, 16, 1),
]


def _select_on(kernel, events, lanes, N, splits, window):
    with running_on(kernel):
        return SplitSelector(events, lanes, N, window=window).select(splits)


@needs_compiled
@pytest.mark.parametrize("lanes,n,splits,window", _SCAN_CASES)
def test_c_scan_matches_numpy_scan(lanes, n, splits, window):
    """The C split scan chooses what the numpy scan chooses: the same
    metadata arrays and the same stats, on seeded encodes."""
    for seed in range(3):
        enc = _oracle_case(lanes, n, seed=1_000 * seed + n)
        got = [
            _select_on(k, enc.events, lanes, n, splits, window)
            for k in ("compiled", "numpy")
        ]
        (md_c, stats_c), (md_np, stats_np) = got
        assert stats_c == stats_np
        assert md_c.num_words == md_np.num_words
        for field in ("word_offsets", "lane_indices", "lane_states"):
            a, b = getattr(md_c, field), getattr(md_np, field)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


@needs_compiled
def test_c_scan_refuses_a_lane_outside_the_interleave():
    """A log whose lane lies outside ``[0, K)`` is a typed error from
    the C scan, not a write past its per-lane scratch."""
    events = RenormEvents(
        np.arange(40, 1_040, 10, dtype=np.uint64),
        np.full(100, 4, dtype=np.uint16),
        np.zeros(100, dtype=np.uint16),
    )
    with running_on("compiled"):
        with pytest.raises(MetadataError, match="lane outside"):
            SplitSelector(events, 4, 1_200).select(8)


def _host_kernels() -> list[str]:
    """The split scans this host runs: numpy everywhere, and the C
    scan where a compiler is, so one leg pins both."""
    return ["numpy"] + (["compiled"] if compiled.kernel_available() else [])


def _assert_matches_oracle(enc, lanes, splits, window, kernels):
    N = enc.num_symbols
    want, costs = _oracle_select(enc.events, lanes, N, splits, window)
    for kernel in kernels:
        md, stats = _select_on(kernel, enc.events, lanes, N, splits, window)
        got = list(
            zip(
                md.word_offsets.tolist(),
                md.lane_indices.tolist(),
                md.lane_states.tolist(),
            )
        )
        assert got == want, kernel
        assert stats.requested_threads == splits
        assert stats.achieved_threads == len(want) + 1
        assert stats.total_sync_symbols == sum(
            max(idx) - min(idx) + 1 for _, idx, _ in want
        )
        assert stats.mean_heuristic_cost == (
            float(np.mean(costs)) if costs else 0.0
        )
