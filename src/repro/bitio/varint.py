"""LEB128 varints used in container headers.

Unsigned values are encoded 7 bits at a time, little-endian groups,
high bit as continuation flag.
"""

from __future__ import annotations

from repro.errors import ContainerError


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128."""
    if value < 0:
        raise ValueError(f"uvarint requires value >= 0, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer from ``data[offset:]``.

    Returns ``(value, new_offset)``.
    """
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ContainerError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ContainerError("uvarint too long (>64 bits)")
