"""MSB-first bit reader, the inverse of :class:`repro.bitio.BitWriter`."""

from __future__ import annotations

import numpy as np

from repro.errors import DecodeError


def gather_bits(
    data: bytes | np.ndarray,
    positions: np.ndarray,
    widths: int | np.ndarray,
) -> np.ndarray:
    """Vectorized fixed-width reads at arbitrary bit positions.

    The positional cousin of :meth:`BitReader.read_bits_array`: where
    the reader unpacks *consecutive* equal-width fields, this gathers
    a ``widths``-bit big-endian field starting at every (absolute) bit
    offset in ``positions`` — the access pattern of record layouts
    whose field offsets are computed up front.  ``positions`` and
    ``widths`` broadcast against each other; widths up to 32 are
    supported (7 skew bits + 32 payload bits fit the 40-bit windows
    built per byte offset).  Returns int64 values in the broadcast
    shape.
    """
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
        data, (bytes, bytearray, memoryview)
    ) else np.asarray(data, dtype=np.uint8)
    positions = np.asarray(positions, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if positions.size == 0:
        return np.zeros(
            np.broadcast_shapes(positions.shape, widths.shape),
            dtype=np.int64,
        )
    if widths.min() < 0 or widths.max() > 32:
        raise ValueError("gather widths must be in [0, 32]")
    if positions.min() < 0 or int((positions + widths).max()) > 8 * len(buf):
        raise DecodeError(
            "bit gather out of range: field extends past the buffer"
        )
    padded = np.zeros(len(buf) + 5, dtype=np.int64)
    padded[: len(buf)] = buf
    win40 = (
        (padded[:-4] << np.int64(32))
        | (padded[1:-3] << np.int64(24))
        | (padded[2:-2] << np.int64(16))
        | (padded[3:-1] << np.int64(8))
        | padded[4:]
    )
    sh = 40 - (positions & 7) - widths
    return (win40[positions >> 3] >> sh) & ((np.int64(1) << widths) - 1)


class BitReader:
    """Reads bits MSB-first from a ``bytes``-like object.

    Reading past the end raises :class:`repro.errors.DecodeError`
    rather than silently returning zeros, so corruption is detected at
    the earliest possible point.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = bytes(data)
        if start_bit < 0 or start_bit > 8 * len(self._data):
            raise ValueError(f"start_bit {start_bit} out of range")
        self._pos = start_bit  # absolute bit position

    @property
    def bit_position(self) -> int:
        """Current absolute bit offset from the start of the buffer."""
        return self._pos

    def read_bit(self) -> int:
        if self._pos >= 8 * len(self._data):
            raise DecodeError("bit reader exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first).

        ``width == 0`` is allowed and returns 0 without consuming input.
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if width == 0:
            return 0
        left = 8 * len(self._data) - self._pos
        if width > left:
            raise DecodeError(
                f"bit reader exhausted: need {width} bits, have {left}"
            )
        pos = self._pos
        end = pos + width
        first_byte = pos >> 3
        last_byte = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first_byte : last_byte + 1], "big")
        total_bits = 8 * (last_byte - first_byte + 1)
        chunk >>= total_bits - (end - 8 * first_byte)
        self._pos = end
        return chunk & ((1 << width) - 1)

    def read_bits_array(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit fields at once.

        Equivalent to ``[read_bits(width) for _ in range(count)]`` but
        unpacked with one vectorized pass; returns an int64 array.
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if width == 0 or count == 0:
            return np.zeros(count, dtype=np.int64)
        if width > 62:  # int64 dot product would overflow
            return np.array(
                [self.read_bits(width) for _ in range(count)],
                dtype=np.int64,
            )
        total = count * width
        left = 8 * len(self._data) - self._pos
        if total > left:
            raise DecodeError(
                f"bit reader exhausted: need {total} bits, have {left}"
            )
        start = self._pos
        first = start >> 3
        last = (start + total - 1) >> 3
        span = np.frombuffer(self._data, np.uint8, last - first + 1, first)
        bits = np.unpackbits(span)[start - 8 * first :][:total]
        powers = np.left_shift(
            np.int64(1), np.arange(width - 1, -1, -1, dtype=np.int64)
        )
        self._pos = start + total
        return bits.reshape(count, width) @ powers
