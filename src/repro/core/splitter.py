"""Split-point selection (paper §4.1 backward scan + §4.2 heuristic).

Given the renormalization-event log of an encode pass, pick split
events so that per-thread workloads are balanced and Synchronization
Sections stay short, optimizing Definition 4.1's

    H(t, ts) = |t - T| + |t - ts - T|,      T = ceil(N / M)

where ``t`` counts the symbols between the previous and current split
points (including the sync section) and ``ts`` the sync section alone.

Terminology bridge to the implementation: an encoder event recorded at
A-index ``i`` (the symbol about to be encoded when the lane
renormalized) initializes its lane at metadata index ``m = i - K`` —
the lane reads the event's word and then decodes symbol ``m`` (see
DESIGN.md §7).  All indices below are metadata (``m``) indices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.errors import MetadataError
from repro.parallel import compiled
from repro.rans.interleaved import RenormEvents

#: metadata index standing in for a lane's "no event yet" during the
#: window scan: below every real index, so ``C`` keeps rising and the
#: candidate stays invalid.
_NO_EVENT = np.iinfo(np.int64).min // 2
#: cells (boundaries x max(window, lanes)) per block of the window
#: scan: keeps its arrays at a few MB however many splits are asked for.
_SCAN_CELLS = 1 << 16


@dataclass
class SplitterStats:
    """Diagnostics from a selection pass."""

    requested_threads: int
    achieved_threads: int
    total_sync_symbols: int
    mean_heuristic_cost: float


class SplitSelector:
    """Selects split events for a recorded encode pass.

    Parameters
    ----------
    events:
        The encoder's renormalization log (one entry per stream word).
    lanes:
        Interleave width ``K``.
    num_symbols:
        Sequence length ``N``.
    window:
        How many candidate events to examine around each ideal split
        position (the heuristic's search neighbourhood).
    """

    def __init__(
        self,
        events: RenormEvents,
        lanes: int,
        num_symbols: int,
        window: int = 48,
    ) -> None:
        self.events = events
        self.lanes = lanes
        self.num_symbols = num_symbols
        self.window = window

    # -- the numpy scan's views of the log (built on its first use) ------

    @functools.cached_property
    def _ev_lane(self) -> np.ndarray:
        return np.asarray(self.events.lane).astype(np.int64)

    @functools.cached_property
    def _lane_positions(self) -> list[np.ndarray]:
        """Per-lane event positions (indices into the event log), for
        the backward scan's starting point: one stable sort by lane
        keeps each lane's positions ascending."""
        by_lane = np.argsort(np.asarray(self.events.lane), kind="stable")
        counts = np.bincount(self._ev_lane, minlength=self.lanes)
        return np.split(by_lane, np.cumsum(counts)[:-1])

    @functools.cached_property
    def _ev_m(self) -> np.ndarray:
        """Metadata init index of each event; events are
        symbol-ordered, so this array is strictly increasing."""
        return (
            np.asarray(self.events.symbol_index, dtype=np.int64)
            - self.lanes
        )

    # ------------------------------------------------------------------

    def _last_events(self, ids: np.ndarray, side: str) -> np.ndarray:
        """Each lane's last event before (``side="left"``) or at
        (``side="right"``) every event id in ``ids``: ``(len(ids), K)``
        event ids, -1 where the lane has none yet (§4.1's backward
        scan, one ``searchsorted`` per lane)."""
        last = np.full((len(ids), self.lanes), -1, dtype=np.int64)
        for j, pos_j in enumerate(self._lane_positions):
            if len(pos_j) == 0:
                continue
            k = np.searchsorted(pos_j, ids, side=side) - 1
            have = k >= 0
            last[have, j] = pos_j[k[have]]
        return last

    def _scan_windows(
        self, lo: np.ndarray, width: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``S`` and ``C`` of every candidate in every boundary's window.

        Candidate ``w`` of boundary ``b`` is event ``lo[b] + w``.  Each
        lane's last metadata index is taken once at ``lo`` and then
        advanced through the window one event at a time, all boundaries
        together.  ``S`` is the candidate's own index (the newest
        event; indices increase along the log) and ``C`` the minimum over
        lanes, with a lane that has no event yet counting as
        ``_NO_EVENT`` so the candidate fails the ``C > prev_S`` rule.
        Both rise along a window.  Returns two ``(B, max(width))``
        arrays; entries past a window's width are unused.
        """
        ev_m = self._ev_m
        start = self._last_events(lo, side="left")
        cur = np.where(start >= 0, ev_m[np.maximum(start, 0)], _NO_EVENT)
        rows = np.arange(len(lo))
        span = int(width.max())
        S = np.zeros((len(lo), span), dtype=np.int64)
        C = np.zeros((len(lo), span), dtype=np.int64)
        last_event = len(ev_m) - 1
        for w in range(span):
            ev = np.minimum(lo + w, last_event)
            live = w < width
            S[:, w] = ev_m[ev]
            cur[rows[live], self._ev_lane[ev[live]]] = S[live, w]
            C[:, w] = cur.min(axis=1)
        return S, C

    # ------------------------------------------------------------------

    def select(self, num_threads: int) -> tuple[RecoilMetadata, SplitterStats]:
        """Choose up to ``num_threads - 1`` split entries.

        Walks the ideal boundaries left to right; at each, evaluates
        ``window`` nearby candidate events with Definition 4.1 and
        keeps the cheapest valid one.  Returns possibly fewer entries
        than requested when the stream is too short or events too
        sparse — the metadata then simply supports fewer threads.

        On a host with a C compiler one C call makes the whole
        selection, entries included (:func:`repro.parallel.compiled.
        split_scan`).  Elsewhere every window is scanned in one
        batched numpy pass (:meth:`_scan_windows`), and only the
        ``prev_S`` rule runs boundary by boundary (:meth:`_choose`).
        """
        if num_threads < 1:
            raise MetadataError(f"num_threads must be >= 1, got {num_threads}")
        N = self.num_symbols
        E = len(self.events)
        K = self.lanes
        if num_threads == 1 or E == 0 or N <= K:
            empty = np.empty((0, K), dtype=np.int64)
            md = RecoilMetadata(N, E, K, [], empty, empty)
            return md, SplitterStats(num_threads, 1, 0, 0.0)

        T = -(-N // num_threads)  # ceil: expected symbols per split
        # Ideal boundaries t * T, for t < num_threads and t * T < N.
        boundaries = min(num_threads, -(-N // T)) - 1
        if compiled.kernel_available():
            ev = self.events
            got = compiled.split_scan(
                np.ascontiguousarray(ev.symbol_index, dtype=np.uint64),
                np.ascontiguousarray(ev.lane, dtype=np.uint16),
                np.ascontiguousarray(ev.state_after, dtype=np.uint16),
                K, N, T, boundaries, self.window,
            )
            if got is None:
                raise MetadataError(f"event lane outside [0, {K})")
            chosen, costs, indices, states = got
            md = RecoilMetadata(N, E, K, chosen, indices, states)
        else:
            chosen, costs = self._choose(T, boundaries)
            md = self._metadata(chosen)
        stats = SplitterStats(
            requested_threads=num_threads,
            achieved_threads=md.num_threads,
            total_sync_symbols=md.sync_overhead_symbols(),
            mean_heuristic_cost=(
                float(np.mean(np.asarray(costs, dtype=np.float64)))
                if len(costs) else 0.0
            ),
        )
        return md, stats

    def _choose(self, T: int, boundaries: int) -> tuple[list[int], list[int]]:
        """The numpy selection: the chosen event ids and their costs."""
        N = self.num_symbols
        E = len(self.events)
        K = self.lanes
        ideal = T * np.arange(1, boundaries + 1, dtype=np.int64)
        center = np.searchsorted(self._ev_m, ideal)
        lo = np.maximum(0, center - self.window // 2)
        width = np.clip(np.minimum(E, lo + self.window) - lo, 0, None)
        keep = width > 0
        lo, width = lo[keep], width[keep]

        # Def 4.1 with t = S - prev_S and ts = S - C + 1:
        #   H = |S - prev_S - T| + |C - 1 - prev_S - T|.
        # S and C rise along a window, so the valid candidates form one
        # run: from the first C > prev_S (which also gives S > prev_S)
        # to the last S < N inside the window.  Boundaries go through
        # the scan in blocks, which caps its arrays however many splits
        # are asked for.
        block = max(1, _SCAN_CELLS // max(self.window, K))
        chosen: list[int] = []
        costs: list[int] = []
        prev_S = 0
        for b0 in range(0, len(lo), block):
            blo, bwidth = lo[b0 : b0 + block], width[b0 : b0 + block]
            S, C = self._scan_windows(blo, bwidth)
            stop = np.minimum(bwidth, (S < N).sum(axis=1))
            S_T = S - T
            C_T = C - 1 - T
            for b, hi in enumerate(stop.tolist()):
                first = int(np.searchsorted(C[b, :hi], prev_S, side="right"))
                if first >= hi:
                    continue
                cost = (
                    np.abs(S_T[b, first:hi] - prev_S)
                    + np.abs(C_T[b, first:hi] - prev_S)
                )
                best = first + int(np.argmin(cost))  # first minimum
                chosen.append(int(blo[b]) + best)
                costs.append(int(cost[best - first]))
                prev_S = int(S[b, best])
        return chosen, costs

    def _metadata(self, chosen: list[int]) -> RecoilMetadata:
        """Metadata of the ``chosen`` split events, from one gather of
        each lane's last event at each of them."""
        ids = self._last_events(
            np.asarray(chosen, dtype=np.int64), side="right"
        )
        return RecoilMetadata(
            self.num_symbols,
            len(self.events),
            self.lanes,
            chosen,
            self._ev_m[ids],
            np.asarray(self.events.state_after)[ids],
        )
