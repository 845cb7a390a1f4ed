"""Unit + property tests for the bit I/O substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bitio import (
    BitReader,
    BitWriter,
    decode_uvarint,
    encode_uvarint,
    gather_bits,
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
            w.write_bit(b)
        assert w.to_bytes() == bytes([0b10110000])

    def test_write_bits_value(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bit(1)
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
            w.write_bit(2)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0, -1)



class TestBitReader:
    def test_roundtrip_simple(self):
        r = BitReader(bytes([0b10110000]))
        assert [r.read_bit() for _ in range(4)] == [1, 0, 1, 1]

    def test_read_bits(self):
        r = BitReader(bytes([0xAB, 0xCD, 0xEF]))
        assert r.read_bits(12) == 0xABC
        assert r.read_bits(12) == 0xDEF

    def test_exhaustion_raises(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(DecodeError):
            r.read_bit()

    def test_read_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(DecodeError):
            r.read_bits(9)

    def test_zero_width_read(self):
        r = BitReader(b"")
        assert r.read_bits(0) == 0

    def test_start_bit(self):
        r = BitReader(bytes([0xAB]), start_bit=4)
        assert r.read_bits(4) == 0xB

    def test_bad_start_bit(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", start_bit=9)


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
    r = BitReader(w.to_bytes())
    for value, width in pairs:
        assert r.read_bits(width) == value


class TestGatherBits:
    def test_matches_bitreader(self):
        import numpy as np

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
        # Cross-check against sequential reads.
        r = BitReader(blob)
        assert [r.read_bits(width) for width in widths] == values

    def test_broadcasts_row_widths(self):
        import numpy as np

        blob = bytes(range(32))
        pos = np.arange(0, 64, 8).reshape(2, 4)
        out = gather_bits(blob, pos, np.array([[8], [4]]))
        assert out.shape == (2, 4)
        assert out[0].tolist() == [0, 1, 2, 3]
        assert out[1].tolist() == [0, 0, 0, 0]  # top nibbles of 4..7

    def test_out_of_range_rejected(self):
        import numpy as np

        with pytest.raises(DecodeError):
            gather_bits(b"\xff", np.array([4]), 8)

    def test_width_cap(self):
        import numpy as np

        with pytest.raises(ValueError):
            gather_bits(b"\xff" * 16, np.array([0]), 33)

    def test_empty_positions(self):
        import numpy as np

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
