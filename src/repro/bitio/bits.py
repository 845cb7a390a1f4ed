"""MSB-first bit fields: one writer and two readers.

The §4.3 metadata packs its difference series and entry records as
big-endian fixed-width fields, the first field in the most significant
bit of the first byte.  :class:`BitWriter` appends fields,
:func:`read_bits` reads one field at a bit offset, and
:func:`gather_bits` reads many fields at once.  A read that runs past
the end of its buffer raises :class:`~repro.errors.DecodeError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodeError


class BitWriter:
    """Accumulates bit fields MSB-first and renders them as ``bytes``.

    Example::

        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits_array(np.array([1, 0]), 1)
        w.to_bytes()          # b'\\xb0'  (1011 0000)
    """

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # the pending bits, < 2**_nbits
        self._nbits = 0  # bits pending in _acc (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buf) + self._nbits

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (MSB of the field first).

        ``value`` must be a non-negative integer < 2**width, of any
        width: every complete byte is rendered by one ``int.to_bytes``.
        A width of zero writes nothing.
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        rem = nbits & 7
        if nbits >> 3:
            self._buf += (acc >> rem).to_bytes(nbits >> 3, "big")
            acc &= (1 << rem) - 1
        self._acc = acc
        self._nbits = rem

    def write_bits_array(self, values, width: int) -> None:
        """Append each of ``values`` as a ``width``-bit field
        (``width`` <= 64).

        The bits are those of one :meth:`write_bits` per element:
        numpy unpacks each value's low ``width`` bits and packs the
        series into bytes, and one :meth:`write_bits` appends them.
        """
        values = np.asarray(values)
        if values.ndim != 1 or values.dtype.kind not in "ui":
            raise ValueError("values must be a 1-D integer array")
        if not 0 <= width <= 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        if len(values) == 0:
            return
        if int(values.min()) < 0:
            raise ValueError("negative value in bit series")
        top = int(values.max())
        if width < top.bit_length():
            raise ValueError(f"value {top} does not fit in {width} bits")
        bytes8 = values.astype(">u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(bytes8, axis=1)[:, 64 - width :]
        packed = int.from_bytes(np.packbits(bits).tobytes(), "big")
        self.write_bits(packed >> (-bits.size & 7), bits.size)

    def to_bytes(self) -> bytes:
        """Render the written bits, zero-padding the final partial byte.

        The writer remains usable afterwards (rendering is
        non-destructive), but note that further writes after rendering a
        partial byte continue from the *unpadded* position.
        """
        if self._nbits:
            tail = (self._acc << (8 - self._nbits)) & 0xFF
            return bytes(self._buf) + bytes([tail])
        return bytes(self._buf)


def read_bits(data, pos: int, width: int) -> int:
    """The ``width``-bit field at bit offset ``pos`` of the bytes-like
    ``data``, MSB first.  A width of zero reads 0.

    :raises DecodeError: the field extends past the end of ``data``.
    """
    end = pos + width
    if pos < 0 or end > 8 * len(data):
        raise DecodeError(
            f"bit read [{pos}, {end}) outside a {len(data)}-byte buffer"
        )
    chunk = int.from_bytes(data[pos >> 3 : (end + 7) >> 3], "big")
    return (chunk >> (-end & 7)) & ((1 << width) - 1)


def gather_bits(
    data: bytes | np.ndarray,
    positions: np.ndarray,
    widths: int | np.ndarray,
) -> np.ndarray:
    """Vectorized fixed-width reads at arbitrary bit positions.

    Gathers a ``widths``-bit big-endian field starting at every
    (absolute) bit offset in ``positions`` — the access pattern of
    record layouts whose field offsets are computed up front.
    ``positions`` and ``widths`` broadcast against each other; widths
    up to 32 are supported (7 skew bits + 32 payload bits fit the
    64-bit window that starts at each field's first byte).  The cost
    follows the number of fields: only the bytes the fields span are
    copied.  Returns int64 values in the broadcast shape.

    :raises DecodeError: a field extends past the end of ``data``.
    """
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(
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
    lo = int(positions.min())
    hi = int((positions + widths).max())
    if lo < 0 or hi > 8 * len(buf):
        raise DecodeError(
            "bit gather out of range: field extends past the buffer"
        )
    first, last = lo >> 3, (hi + 7) >> 3
    span = np.zeros(last - first + 8, dtype=np.uint8)  # window slack
    span[: last - first] = buf[first:last]
    # The big-endian 64-bit window at every byte offset of the span.
    windows = np.ndarray(
        (last - first + 1,), dtype=">i8", buffer=span, strides=(1,)
    )
    win = windows.take((positions >> 3) - first).astype(np.int64)
    # An arithmetic shift: the sign copies land above every field.
    return (win >> (64 - (positions & 7) - widths)) & (
        (np.int64(1) << widths) - 1
    )
