"""Tests for the §4.3 metadata wire format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitio import BitReader, BitWriter
from repro.core.metadata import RecoilMetadata
from repro.core.serialization import (
    metadata_size_bytes,
    parse_metadata,
    read_signed_series,
    serialize_metadata,
    write_signed_series,
)
from repro.errors import MetadataError


class TestSeries:
    def test_all_zero_series_one_bit_each(self):
        """Paper footnote: zeros still use one bit per element."""
        w = BitWriter()
        write_signed_series(w, np.zeros(32, dtype=int))
        assert len(w) == 5 + 1 + 32  # width field + sign flag + 1 bit each

    def test_width_follows_max(self):
        w = BitWriter()
        write_signed_series(w, np.array([0, 255]))
        assert len(w) == 5 + 1 + 2 * 8

    def test_signed_roundtrip(self):
        w = BitWriter()
        values = np.array([-4, 0, 9, -1])
        write_signed_series(w, values)
        out = read_signed_series(BitReader(w.to_bytes()), 4)
        assert np.array_equal(out, values)

    def test_signed_all_positive_omits_sign_bits(self):
        w1 = BitWriter()
        write_signed_series(w1, np.array([3, 1, 2]))
        w2 = BitWriter()
        write_signed_series(w2, np.array([3, 1, -2]))
        assert len(w1) == 5 + 1 + 3 * 2
        assert len(w2) == 5 + 1 + 3 * (1 + 2)

    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31),
                    max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_signed_series_property(self, values):
        w = BitWriter()
        arr = np.array(values, dtype=np.int64)
        write_signed_series(w, arr)
        out = read_signed_series(BitReader(w.to_bytes()), len(values))
        assert np.array_equal(out, arr)


def _random_metadata(seed: int, lanes: int = 8, entries: int = 12):
    r = np.random.default_rng(seed)
    offsets, rows, states = [], [], []
    base = 0
    offset = 0
    prev_s = 0
    for _ in range(entries):
        base += int(r.integers(lanes * 2, lanes * 10))
        offset += int(r.integers(5, 60))
        group = base // lanes + 1
        j = np.arange(lanes)
        indices = (group - 1) * lanes + j + 1
        back = r.integers(0, 3, lanes)  # lanes lag up to 2 groups
        indices = indices - back * lanes
        if indices.min() < 1:
            indices += lanes * 3
            base += lanes * 3
        row_states = r.integers(1, 1 << 16, lanes)
        # Keep the entries that satisfy the ordering invariant.
        if indices.min() > prev_s:
            offsets.append(offset)
            rows.append(indices)
            states.append(row_states)
            prev_s = indices.max()
    return RecoilMetadata(
        base + lanes * 20,
        offset + 100,
        lanes,
        offsets,
        np.reshape(rows, (-1, lanes)),
        np.reshape(states, (-1, lanes)),
    )


class TestMetadataSerialization:
    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        md = _random_metadata(seed)
        blob = serialize_metadata(md)
        out, consumed = parse_metadata(blob)
        assert consumed == len(blob)
        assert out.num_symbols == md.num_symbols
        assert out.num_words == md.num_words
        assert out.lanes == md.lanes
        assert len(md.word_offsets) > 0
        assert np.array_equal(out.word_offsets, md.word_offsets)
        assert np.array_equal(out.lane_indices, md.lane_indices)
        assert np.array_equal(out.lane_states, md.lane_states)

    def test_empty_metadata(self):
        md = RecoilMetadata(100, 50, 4, [], np.zeros((0, 4)), np.zeros((0, 4)))
        blob = serialize_metadata(md)
        out, consumed = parse_metadata(blob)
        assert consumed == len(blob)
        assert out.num_threads == 1
        assert out.word_offsets.shape == (0,)
        assert out.lane_indices.shape == out.lane_states.shape == (0, 4)

    def test_trailing_data_untouched(self):
        md = _random_metadata(3)
        blob = serialize_metadata(md) + b"PAYLOAD"
        out, consumed = parse_metadata(blob)
        assert blob[consumed:] == b"PAYLOAD"

    def test_offset_parsing(self):
        md = _random_metadata(4)
        blob = b"\xde\xad" + serialize_metadata(md)
        out, consumed = parse_metadata(blob, offset=2)
        assert np.array_equal(out.word_offsets, md.word_offsets)

    def test_oversized_state_rejected(self):
        md = RecoilMetadata(
            100, 50, 4, [5], [np.arange(1, 5)], [[1 << 16, 1, 1, 1]]
        )
        with pytest.raises(MetadataError):
            serialize_metadata(md)

    def test_lane_index_outside_its_lane_rejected(self):
        md = RecoilMetadata(100, 50, 4, [5], [[2, 2, 3, 4]], np.ones((1, 4)))
        with pytest.raises(MetadataError):
            serialize_metadata(md)

    @pytest.mark.parametrize(
        "lanes_behind, num_words",
        [
            (1 << 33, 50),  # a record's group diffs need 34 bits
            (0, 1 << 40),  # the offset diffs need 39 bits
        ],
    )
    def test_series_wider_than_32_bits_rejected(self, lanes_behind, num_words):
        K = 2
        indices = np.array([1, 2]) + np.array([0, K * lanes_behind])
        # Anchors sit at their expected value, so only the named series
        # overflows.
        md = RecoilMetadata(
            4 * (lanes_behind + 1), num_words, K, [5], [indices],
            np.ones((1, K)),
        )
        with pytest.raises(MetadataError, match="32 bits"):
            serialize_metadata(md)

    def test_size_accounting_matches(self):
        md = _random_metadata(5)
        assert metadata_size_bytes(md) == len(serialize_metadata(md))

    def test_compactness(self):
        """Paper target: tens of bytes per split for 32 lanes (vs
        132 B/partition for Conventional)."""
        md = _random_metadata(6, lanes=32, entries=40)
        per_entry = (metadata_size_bytes(md) - 8) / len(md.word_offsets)
        assert per_entry < 100  # 64B states + ~20B diffs + share of header

    def test_states_dominate_size(self):
        """The 16-bit states are the bulk — everything else is squeezed
        by the difference coding."""
        md = _random_metadata(7, lanes=32, entries=30)
        size = metadata_size_bytes(md)
        state_bytes = 2 * 32 * len(md.word_offsets)
        assert state_bytes > 0.6 * size
