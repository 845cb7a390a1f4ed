"""MSB-first bit writer.

Bits are accumulated into a growing byte buffer; the first bit written
lands in the most-significant bit of the first byte.  This matches the
layout in paper §4.3, where a 4-bit width header is followed by packed
fixed-width values (read back in the same order).

Bulk entry points (:meth:`BitWriter.write_bits` for arbitrarily wide
values, :meth:`BitWriter.write_bits_array` for fixed-width series)
render whole byte runs at once instead of looping bit-by-bit, so the
serialization hot paths never pay per-bit Python dispatch.
"""

from __future__ import annotations

import numpy as np


class BitWriter:
    """Accumulates bits MSB-first and renders them as ``bytes``.

    Example::

        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bit(1)
        w.to_bytes()          # b'\\xb0'  (1011 0000)
    """

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # bit accumulator, < 2**8 once flushed
        self._nbits = 0  # bits currently held in _acc (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buf) + self._nbits

    @property
    def bit_length(self) -> int:
        """Alias for ``len(self)``."""
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._acc = (self._acc << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (MSB of the field first).

        ``value`` must be a non-negative integer < 2**width.  A width of
        zero is allowed and writes nothing (used for all-zero series).
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width == 0:
            return
        # Render every complete byte in one int.to_bytes call (C-level
        # regardless of width) and keep only the remainder bits.
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        rem = nbits & 7
        nbytes = nbits >> 3
        if nbytes:
            self._buf += (acc >> rem).to_bytes(nbytes, "big")
            acc &= (1 << rem) - 1
        self._acc = acc
        self._nbits = rem

    def write_bits_array(self, values, width: int) -> None:
        """Append each of ``values`` as a ``width``-bit field.

        Bit-stream layout is identical to calling :meth:`write_bits`
        per element; the packing itself is vectorized (one
        ``np.packbits`` for the whole series).
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("values must be 1-D")
        if len(values) == 0:
            return
        if values.dtype.kind not in "ui":
            raise ValueError("values must be integers")
        if values.dtype.kind == "i" and int(values.min()) < 0:
            raise ValueError("negative value in bit series")
        top = int(values.max())
        if width < top.bit_length():
            raise ValueError(f"value {top} does not fit in {width} bits")
        if width == 0:
            return
        if width > 57:  # keep the shift matrix inside uint64
            for v in values.tolist():
                self.write_bits(int(v), width)
            return
        if len(values) <= 256:
            # Short series: folding into one Python int and rendering
            # it with a single write_bits beats numpy's fixed setup
            # cost (the fold is quadratic, so long series take the
            # vectorized path below).
            big = 0
            for v in values.tolist():
                big = (big << width) | v
            self.write_bits(big, len(values) * width)
            return
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = (
            (values.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)
        ).astype(np.uint8)
        head = self._nbits
        if head:
            acc_bits = (
                (np.uint64(self._acc)
                 >> np.arange(head - 1, -1, -1, dtype=np.uint64))
                & np.uint64(1)
            ).astype(np.uint8)
            stream = np.concatenate([acc_bits, bits.ravel()])
        else:
            stream = bits.ravel()
        rem = len(stream) & 7
        whole = len(stream) - rem
        if whole:
            self._buf += np.packbits(stream[:whole]).tobytes()
        acc = 0
        for b in stream[whole:].tolist():
            acc = (acc << 1) | int(b)
        self._acc = acc
        self._nbits = rem

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
