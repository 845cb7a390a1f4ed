"""Tests for Recoil split metadata and combining (§3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.metadata import RecoilMetadata, lane_group_ids
from repro.errors import MetadataError


def make_rows(offsets, bases, lanes: int = 4):
    """``(word_offsets, lane_indices, lane_states)`` of one entry per
    ``(offset, base)``, whose lane indices sit in consecutive groups
    near the base index (keeping each index on its own lane)."""
    j = np.arange(lanes)
    rows = []
    for base in bases:
        group = base // lanes + 1
        indices = (group - 1) * lanes + j + 1
        # Push one lane a group back for a non-trivial sync section.
        if group >= 2:
            indices[0] -= lanes
        rows.append(indices)
    indices = np.array(rows, dtype=np.int64).reshape(len(bases), lanes)
    states = np.full(indices.shape, 77, dtype=np.uint32)
    return np.array(offsets, dtype=np.int64), indices, states


def make_md(n, words, lanes, offsets, bases):
    return RecoilMetadata(n, words, lanes, *make_rows(offsets, bases, lanes))


class TestLaneGroupIds:
    def test_roundtrip(self):
        _, indices, _ = make_rows([10, 20], [40, 90])
        g = lane_group_ids(indices, 4)
        assert np.array_equal(g.max(axis=1), [11, 23])
        assert np.array_equal((g - 1) * 4 + np.arange(4) + 1, indices)

    def test_reject_wrong_lane(self):
        # index 6 on lane 0 (expects indices ≡ 1 mod 4)
        with pytest.raises(MetadataError, match="does not belong"):
            lane_group_ids(np.array([[1, 2, 3, 4], [6, 2, 3, 4]]), 4)


class TestRecoilMetadata:
    def make_md(self, n=1000, words=500, lanes=4, bases=(100, 300, 600)):
        offsets = [10 * (i + 1) for i in range(len(bases))]
        return make_md(n, words, lanes, offsets, bases)

    def tasks(self, md):
        return build_thread_tasks(md, md.num_words, np.zeros(md.lanes))

    def test_num_threads(self):
        md = self.make_md()
        assert md.num_threads == 4

    def test_sync_overhead_sums_sync_sections(self):
        """Each entry's sync section is ``S - C + 1`` with ``S`` and
        ``C`` its row's maximum and minimum lane index."""
        md = self.make_md()
        li = md.lane_indices
        sections = li.max(axis=1) - li.min(axis=1) + 1
        assert sections.tolist() == [8, 8, 8]
        assert md.sync_overhead_symbols() == 24
        assert isinstance(md.sync_overhead_symbols(), int)

    def test_tasks_partition_sequence(self):
        """Commit ranges must tile [1, N] exactly, in order."""
        md = self.make_md()
        tasks = self.tasks(md)
        assert tasks.num_tasks == md.num_threads
        expected_next = 1
        for commit_hi, commit_lo in tasks.geom[:, 3:5].tolist():
            assert commit_lo == expected_next
            assert commit_hi >= commit_lo - 1
            expected_next = commit_hi + 1
        assert expected_next == md.num_symbols + 1

    def test_task_walks_cover_commits(self):
        md = self.make_md()
        _, walk_hi, walk_lo, commit_hi, commit_lo = self.tasks(md).geom[
            :, :5
        ].T
        assert np.all(walk_lo <= commit_lo)
        assert np.all(walk_hi >= commit_hi)

    def test_walk_overlap_is_sync_sections(self):
        md = self.make_md()
        tasks = self.tasks(md)
        total_walk = int(tasks.walk_lengths.sum())
        assert total_walk == md.num_symbols + md.sync_overhead_symbols()

    # Every invariant check raises its MetadataError, naming the first
    # bad entry where one is at fault.

    def test_lanes_below_one_rejected(self):
        empty = (np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(MetadataError, match="lanes must be >= 1"):
            RecoilMetadata(100, 50, 0, *empty)

    @pytest.mark.parametrize(
        "indices_shape, states_shape",
        [((1, 2), (1, 3)), ((1, 4), (1, 3)), ((4,), (4,)), ((2, 4), (1, 4))],
        ids=["unequal", "states-short", "one-dim", "rows-mismatch"],
    )
    def test_lane_arrays_not_n_by_k_rejected(
        self, indices_shape, states_shape
    ):
        indices = np.arange(1, 1 + np.prod(indices_shape)).reshape(
            indices_shape
        )
        with pytest.raises(MetadataError, match="shapes"):
            RecoilMetadata(
                1000, 500, 4, [5], indices, np.ones(states_shape)
            )

    def test_nonpositive_index_rejected(self):
        off, indices, states = make_rows([10, 20], [100, 300])
        indices[1, 0] = 0
        with pytest.raises(MetadataError, match="entry 1: lane indices"):
            RecoilMetadata(1000, 500, 4, off, indices, states)

    def test_entries_must_be_ordered(self):
        with pytest.raises(MetadataError, match="entry 1: .*offset-ordered"):
            make_md(1000, 500, 4, [20, 10], [100, 300])

    def test_overlapping_sync_sections_rejected(self):
        # Same indices: C2 <= S1.
        with pytest.raises(MetadataError, match="entry 1: sync section"):
            make_md(1000, 500, 4, [10, 20], [100, 100])

    def test_split_beyond_sequence_rejected(self):
        with pytest.raises(MetadataError, match="entry 1 split index"):
            make_md(200, 500, 4, [10, 20], [100, 300])

    def test_offset_beyond_stream_rejected(self):
        with pytest.raises(MetadataError, match="entry 1 word offset 30"):
            make_md(1000, 25, 4, [10, 30], [100, 300])

    def test_lane_count_mismatch_rejected(self):
        off, indices, states = make_rows([10], [100], lanes=4)
        with pytest.raises(MetadataError, match="shapes"):
            RecoilMetadata(1000, 500, 8, off, indices, states)


class TestCombine:
    def make_md(self, num_entries=20, lanes=4):
        k = np.arange(1, num_entries + 1)
        # Entries span the sequence (last split near N) so balanced
        # combining is actually possible.
        n = 50 * num_entries + 60
        return make_md(n, 20 * num_entries + 50, lanes, 20 * k, 50 * k)

    def test_combine_to_fewer(self):
        md = self.make_md()
        small = md.combine(5)
        assert small.num_threads == 5
        # Entries must be a subset of the originals.
        assert set(small.word_offsets) <= set(md.word_offsets)

    def test_combine_to_one(self):
        small = self.make_md().combine(1)
        assert small.num_threads == 1
        assert small.word_offsets.shape == (0,)
        assert small.lane_indices.shape == small.lane_states.shape == (0, 4)

    def test_combine_no_op_when_target_larger(self):
        md = self.make_md(num_entries=3)
        assert md.combine(10).num_threads == 4

    def test_combine_keeps_balance(self):
        """Chosen splits approximate equal symbol coverage."""
        md = self.make_md(num_entries=40)
        small = md.combine(5)
        splits = small.lane_indices.max(axis=1)
        ideal = [md.num_symbols * k / 5 for k in range(1, 5)]
        for s, t in zip(splits, ideal):
            assert abs(s - t) < md.num_symbols / 5

    def test_combine_valid_metadata(self):
        small = self.make_md().combine(7)
        small.validate()

    def test_combine_idempotent(self):
        md = self.make_md()
        once = md.combine(6)
        twice = once.combine(6)
        assert np.array_equal(once.word_offsets, twice.word_offsets)

    def test_combine_monotone_nesting_sizes(self):
        md = self.make_md(num_entries=30)
        sizes = [
            len(md.combine(t).word_offsets) for t in (31, 16, 8, 4, 2, 1)
        ]
        assert sizes == [30, 15, 7, 3, 1, 0]

    def test_bad_target_rejected(self):
        with pytest.raises(MetadataError):
            self.make_md().combine(0)
