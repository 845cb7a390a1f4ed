"""Recoil split metadata (paper §3.3, §4.1, Tables 1–2).

One entry per split carries everything one decoder thread needs to
start mid-stream.  :class:`RecoilMetadata` keeps the entries as three
arrays, row ``k`` holding entry ``k``:

- ``word_offsets`` ``(n,)`` — the stream position of each split
  event's word; the thread's first renormalization read happens there,
  reading downward.
- ``lane_indices`` ``(n, K)`` — the 1-based symbol index at which each
  interleaved lane initializes (the paper's "Symbol Indices" row of
  Table 2, recoverable from Symbol Group IDs).
- ``lane_states`` ``(n, K)`` — the bounded post-renormalization states
  (< L, Lemma 3.1), stored in 16 bits each.

An entry's *split index* ``S`` (its row's maximum lane index) is where
its thread's walk starts; its *sync-complete index* ``C`` (the row's
minimum) is where all lanes are initialized.  The Synchronization
Section is ``[C, S]``.

Decoder-adaptive scalability (§3.3) is :meth:`RecoilMetadata.combine`:
dropping entries merges splits, and nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MetadataError


def lane_group_ids(lane_indices: np.ndarray, lanes: int) -> np.ndarray:
    """Symbol Group IDs (Table 2) of lane indices whose last axis runs
    over the ``lanes`` lanes: one entry's ``(K,)`` or all ``(n, K)``.

    Lane ``j`` owns symbol indices congruent to ``j + 1`` mod ``K``,
    so ``index = (group - 1) * K + j + 1`` is exactly invertible.
    """
    g, rem = np.divmod(lane_indices - np.arange(lanes) - 1, lanes)
    if np.any(rem != 0):
        raise MetadataError(
            "lane index does not belong to its lane (corrupt entry)"
        )
    return g + 1


def _first(bad: np.ndarray) -> int | None:
    """Position of the first true element of ``bad``, if any."""
    hit = np.flatnonzero(bad)
    return int(hit[0]) if len(hit) else None


@dataclass
class RecoilMetadata:
    """Split entries, as three arrays, plus stream geometry.

    ``num_threads = n + 1``: the final segment (the back of the
    stream) is decoded from the container's final states and needs no
    entry.
    """

    num_symbols: int
    num_words: int
    lanes: int
    word_offsets: np.ndarray  # int64, (n,)
    lane_indices: np.ndarray  # int64, (n, K), 1-based symbol indices
    lane_states: np.ndarray  # uint32, (n, K); < 2**16 unless full

    def __post_init__(self) -> None:
        self.word_offsets = np.asarray(self.word_offsets, dtype=np.int64)
        self.lane_indices = np.asarray(self.lane_indices, dtype=np.int64)
        self.lane_states = np.asarray(self.lane_states, dtype=np.uint32)
        self.validate()

    def validate(self) -> None:
        """Check the ordering/consistency invariants of the entries,
        each over all rows at once; a failure names the first bad
        entry."""
        K, N, W = self.lanes, self.num_symbols, self.num_words
        if K < 1:
            raise MetadataError(f"lanes must be >= 1, got {K}")
        off, li, ls = self.word_offsets, self.lane_indices, self.lane_states
        n = off.size
        if off.shape != (n,) or li.shape != (n, K) or ls.shape != (n, K):
            raise MetadataError(
                f"split arrays must have shapes ({n},) and ({n}, {K}), "
                f"got {off.shape}, {li.shape} and {ls.shape}"
            )
        S = li.max(axis=1)
        C = li.min(axis=1)
        prev_S = np.concatenate(([0], S))[:-1]
        prev_off = np.concatenate(([-1], off))[:-1]
        if (k := _first(C < 1)) is not None:
            raise MetadataError(f"entry {k}: lane indices must be >= 1")
        if (k := _first((off < 0) | (off >= max(W, 1)))) is not None:
            raise MetadataError(
                f"entry {k} word offset {off[k]} outside "
                f"stream of {W} words"
            )
        if (k := _first(off <= prev_off)) is not None:
            raise MetadataError(
                f"entry {k}: entries must be offset-ordered "
                f"({off[k]} after {prev_off[k]})"
            )
        if (k := _first(C <= prev_S)) is not None:
            raise MetadataError(
                f"entry {k}: sync section reaches into the previous "
                f"split (C={C[k]} <= S={prev_S[k]})"
            )
        if (k := _first(S > N)) is not None:
            raise MetadataError(
                f"entry {k} split index {S[k]} beyond "
                f"sequence of {N} symbols"
            )

    # ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return len(self.word_offsets) + 1

    def sync_overhead_symbols(self) -> int:
        """Total symbols decoded twice (all Synchronization Sections)."""
        li = self.lane_indices
        return int((li.max(axis=1) - li.min(axis=1) + 1).sum())

    # ------------------------------------------------------------------
    # Decoder-adaptive scalability (§3.3): combining splits.
    # ------------------------------------------------------------------

    def combine(self, target_threads: int) -> "RecoilMetadata":
        """Shrink to at most ``target_threads`` by dropping entries.

        This is the server-side real-time operation: no re-encoding,
        no bitstream change — entries are subsampled so the surviving
        splits cover near-equal symbol counts (paper: "sending every
        other ``N/M``-th split metadata is good enough").
        """
        if target_threads < 1:
            raise MetadataError(
                f"target_threads must be >= 1, got {target_threads}"
            )
        keep = target_threads - 1
        if keep >= len(self.word_offsets):
            return self._take(slice(None))
        if keep == 0:
            return self._take([])
        # Pick entries whose split indices best match the ideal
        # equal-symbol boundaries k * N / target.
        splits = self.lane_indices.max(axis=1)
        targets = (
            np.arange(1, target_threads)
            * (self.num_symbols / target_threads)
        )
        chosen: list[int] = []
        last = -1
        for tgt in targets:
            k = int(np.searchsorted(splits, tgt))
            best = None
            for cand in (k - 1, k):
                if cand <= last or cand < 0 or cand >= len(splits):
                    continue
                if best is None or abs(splits[cand] - tgt) < abs(
                    splits[best] - tgt
                ):
                    best = cand
            if best is None:
                # All nearby entries already taken; take the next free.
                nxt = last + 1
                if nxt >= len(splits):
                    break
                best = nxt
            chosen.append(best)
            last = best
        return self._take(chosen)

    def _take(self, rows) -> "RecoilMetadata":
        """The same stream with only the entries in ``rows``."""
        return RecoilMetadata(
            self.num_symbols,
            self.num_words,
            self.lanes,
            self.word_offsets[rows],
            self.lane_indices[rows],
            self.lane_states[rows],
        )
