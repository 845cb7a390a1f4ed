"""Recoil split metadata (paper §3.3, §4.1, Tables 1–2).

A :class:`SplitEntry` carries everything one decoder thread needs to
start mid-stream:

- ``word_offset`` — the stream position of the split event's word; the
  thread's first renormalization read happens there, reading downward.
- per-lane ``lane_indices`` — the 1-based symbol index at which each
  interleaved lane initializes (the paper's "Symbol Indices" row of
  Table 2, recoverable from Symbol Group IDs).
- per-lane ``lane_states`` — the bounded post-renormalization states
  (< L, Lemma 3.1), stored in 16 bits each.

The *split index* ``S = max(lane_indices)`` is where the thread's walk
starts; the *sync-complete index* ``C = min(lane_indices)`` is where
all lanes are initialized.  The Synchronization Section is ``[C, S]``.

Decoder-adaptive scalability (§3.3) is :meth:`RecoilMetadata.combine`:
dropping entries merges splits, and nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MetadataError


@dataclass(frozen=True)
class SplitEntry:
    """Metadata for one split point (one decoder thread boundary)."""

    word_offset: int
    lane_indices: np.ndarray  # int64, shape (K,), 1-based symbol indices
    lane_states: np.ndarray  # uint32, shape (K,); < 2**16 unless full

    def __post_init__(self) -> None:
        li = np.ascontiguousarray(self.lane_indices, dtype=np.int64)
        ls = np.ascontiguousarray(self.lane_states, dtype=np.uint32)
        if li.shape != ls.shape or li.ndim != 1:
            raise MetadataError("lane arrays must be 1-D and equal length")
        if np.any(li < 1):
            raise MetadataError("lane indices must be >= 1")
        object.__setattr__(self, "lane_indices", li)
        object.__setattr__(self, "lane_states", ls)

    @property
    def lanes(self) -> int:
        return len(self.lane_indices)

    @property
    def split_index(self) -> int:
        """``S``: the highest symbol index this entry initializes."""
        return int(self.lane_indices.max())

    @property
    def sync_complete_index(self) -> int:
        """``C``: index at which all lanes are initialized."""
        return int(self.lane_indices.min())

    @property
    def sync_section_length(self) -> int:
        """Symbols in the Synchronization Section ``[C, S]``."""
        return self.split_index - self.sync_complete_index + 1

    def group_ids(self, lanes: int) -> np.ndarray:
        """Symbol Group IDs (Table 2): 1-based group of each lane index.

        Lane ``j`` owns symbol indices congruent to ``j + 1`` mod ``K``,
        so ``index = (group - 1) * K + j + 1`` is exactly invertible.
        """
        j = np.arange(lanes)
        g, rem = np.divmod(self.lane_indices - j - 1, lanes)
        if np.any(rem != 0):
            raise MetadataError(
                "lane index does not belong to its lane (corrupt entry)"
            )
        return g + 1

    @classmethod
    def from_group_ids(
        cls,
        word_offset: int,
        group_ids: np.ndarray,
        lane_states: np.ndarray,
    ) -> "SplitEntry":
        """Inverse of :meth:`group_ids` (used by deserialization)."""
        group_ids = np.asarray(group_ids, dtype=np.int64)
        lanes = len(group_ids)
        indices = (group_ids - 1) * lanes + np.arange(lanes) + 1
        return cls(word_offset, indices, np.asarray(lane_states))


@dataclass
class RecoilMetadata:
    """Ordered collection of split entries plus stream geometry.

    ``num_threads = len(entries) + 1``: the final segment (the back of
    the stream) is decoded from the container's final states and needs
    no entry.
    """

    num_symbols: int
    num_words: int
    lanes: int
    entries: list[SplitEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check ordering/consistency invariants of the entries."""
        if self.lanes < 1:
            raise MetadataError(f"lanes must be >= 1, got {self.lanes}")
        prev_S = 0
        prev_off = -1
        for k, e in enumerate(self.entries):
            if e.lanes != self.lanes:
                raise MetadataError(
                    f"entry {k} has {e.lanes} lanes, expected {self.lanes}"
                )
            if not 0 <= e.word_offset < max(self.num_words, 1):
                raise MetadataError(
                    f"entry {k} word offset {e.word_offset} outside "
                    f"stream of {self.num_words} words"
                )
            if e.word_offset <= prev_off:
                raise MetadataError("entries must be offset-ordered")
            if e.sync_complete_index <= prev_S:
                raise MetadataError(
                    f"entry {k}: sync section reaches into the previous "
                    f"split (C={e.sync_complete_index} <= S={prev_S})"
                )
            if e.split_index > self.num_symbols:
                raise MetadataError(
                    f"entry {k} split index {e.split_index} beyond "
                    f"sequence of {self.num_symbols} symbols"
                )
            prev_S = e.split_index
            prev_off = e.word_offset

    # ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return len(self.entries) + 1

    def thread_plan(self) -> list[dict]:
        """Per-thread walk/commit ranges (see DESIGN.md §7).

        Thread ``t`` (0-based, ascending symbol ranges) walks
        ``[C_{t-1}, S_t]`` and commits ``[C_{t-1}, C_t - 1]``; the final
        thread walks ``[C_T, N]`` and commits the same.
        """
        plan: list[dict] = []
        prev_c = 1
        for e in self.entries:
            plan.append(
                {
                    "walk_hi": e.split_index,
                    "walk_lo": prev_c,
                    "commit_hi": e.sync_complete_index - 1,
                    "commit_lo": prev_c,
                    "entry": e,
                }
            )
            prev_c = e.sync_complete_index
        plan.append(
            {
                "walk_hi": self.num_symbols,
                "walk_lo": prev_c,
                "commit_hi": self.num_symbols,
                "commit_lo": prev_c,
                "entry": None,
            }
        )
        return plan

    def sync_overhead_symbols(self) -> int:
        """Total symbols decoded twice (all Synchronization Sections)."""
        return sum(e.sync_section_length for e in self.entries)

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
        if keep >= len(self.entries):
            return RecoilMetadata(
                self.num_symbols, self.num_words, self.lanes,
                list(self.entries),
            )
        if keep == 0:
            return RecoilMetadata(
                self.num_symbols, self.num_words, self.lanes, []
            )
        # Pick entries whose split indices best match the ideal
        # equal-symbol boundaries k * N / target.
        splits = np.array([e.split_index for e in self.entries])
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
        return RecoilMetadata(
            self.num_symbols,
            self.num_words,
            self.lanes,
            [self.entries[i] for i in chosen],
        )
