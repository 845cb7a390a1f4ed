"""Unit + property tests for the bit I/O substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bitio import (
    BitWriter,
    decode_uvarint,
    encode_uvarint,
    gather_bits,
    read_bits,
)
from repro.errors import ContainerError, DecodeError


class TestBitWriter:
    def test_empty(self):
        w = BitWriter()
        assert len(w) == 0
        assert w.to_bytes() == b""

    def test_single_bits_msb_first(self):
        w = BitWriter()
        for b in (1, 0, 1, 1):
            w.write_bits(b, 1)
        assert w.to_bytes() == bytes([0b10110000])

    def test_write_bits_value(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(1, 1)
        assert w.to_bytes() == bytes([0b10110000])

    def test_multibyte(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        w.write_bits(0xDEF, 12)
        assert w.to_bytes() == bytes([0xAB, 0xCD, 0xEF])

    def test_zero_width_is_noop(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert len(w) == 0

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_bad_bit_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits_array(np.array([1, 2]), 1)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0, -1)



class TestBitReader:
    """:func:`read_bits`, the one-field reader, at absolute bit
    offsets."""

    def test_roundtrip_simple(self):
        data = bytes([0b10110000])
        assert [read_bits(data, p, 1) for p in range(4)] == [1, 0, 1, 1]

    def test_read_bits(self):
        data = bytes([0xAB, 0xCD, 0xEF])
        assert read_bits(data, 0, 12) == 0xABC
        assert read_bits(data, 12, 12) == 0xDEF

    def test_exhaustion_raises(self):
        assert read_bits(b"\x00", 0, 8) == 0
        with pytest.raises(DecodeError):
            read_bits(b"\x00", 8, 1)

    def test_read_past_end_raises(self):
        with pytest.raises(DecodeError):
            read_bits(b"\x00", 0, 9)

    def test_zero_width_read(self):
        assert read_bits(b"", 0, 0) == 0

    def test_start_bit(self):
        assert read_bits(bytes([0xAB]), 4, 4) == 0xB

    def test_bad_start_bit(self):
        with pytest.raises(DecodeError):
            read_bits(b"\x00", 9, 0)
        with pytest.raises(DecodeError):
            read_bits(b"\x00", -1, 1)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**20 - 1),
                  st.integers(min_value=20, max_value=24)),
        max_size=50,
    )
)
def test_bitio_roundtrip_property(pairs):
    """Anything written field-by-field reads back identically."""
    w = BitWriter()
    for value, width in pairs:
        w.write_bits(value, width)
    data = w.to_bytes()
    pos = 0
    for value, width in pairs:
        assert read_bits(data, pos, width) == value
        pos += width


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=64),
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40),
)
def test_write_bits_array_matches_field_writes(lead, width, values):
    """The array write lays down the bits of one ``write_bits`` per
    value, after any number of pending bits."""
    values = [v & ((1 << width) - 1) for v in values]
    a, b = BitWriter(), BitWriter()
    a.write_bits(0b1011001 >> (7 - lead), lead)
    b.write_bits(0b1011001 >> (7 - lead), lead)
    a.write_bits_array(np.array(values, dtype=np.int64), width)
    for v in values:
        b.write_bits(v, width)
    assert len(a) == len(b) == lead + width * len(values)
    assert a.to_bytes() == b.to_bytes()


class TestGatherBits:
    def test_matches_read_bits(self):
        w = BitWriter()
        values = [0, 1, 2**16 - 1, 12345, 2**31 - 1, 7]
        widths = [1, 3, 16, 17, 32, 5]
        positions = []
        p = 0
        for v, width in zip(values, widths):
            positions.append(p)
            w.write_bits(v, width)
            p += width
        blob = w.to_bytes()
        got = gather_bits(blob, np.array(positions), np.array(widths))
        assert got.tolist() == values
        # Cross-check against one-field reads.
        assert [
            read_bits(blob, p, width) for p, width in zip(positions, widths)
        ] == values

    def test_broadcasts_row_widths(self):
        blob = bytes(range(32))
        pos = np.arange(0, 64, 8).reshape(2, 4)
        out = gather_bits(blob, pos, np.array([[8], [4]]))
        assert out.shape == (2, 4)
        assert out[0].tolist() == [0, 1, 2, 3]
        assert out[1].tolist() == [0, 0, 0, 0]  # top nibbles of 4..7

    def test_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            gather_bits(b"\xff", np.array([4]), 8)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            gather_bits(b"\xff" * 16, np.array([0]), 33)

    def test_empty_positions(self):
        assert gather_bits(b"", np.array([], dtype=np.int64), 8).size == 0


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**32, 2**63 - 1]
    )
    def test_uvarint_roundtrip(self, value):
        blob = encode_uvarint(value)
        out, pos = decode_uvarint(blob)
        assert out == value
        assert pos == len(blob)

    def test_uvarint_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        blob = encode_uvarint(2**20)
        with pytest.raises(ContainerError):
            decode_uvarint(blob[:-1])

    def test_single_byte_values_compact(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_offset_decoding(self):
        blob = b"\xff" + encode_uvarint(5)
        value, pos = decode_uvarint(blob, offset=1)
        assert value == 5
        assert pos == len(blob)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_uvarint_property(self, value):
        out, _ = decode_uvarint(encode_uvarint(value))
        assert out == value
