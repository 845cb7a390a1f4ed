"""Bit-level I/O substrate.

The Recoil metadata format (paper §4.3) packs difference series with a
per-series bit width; this subpackage provides its one bit layer — an
MSB-first writer, a one-field reader and a vectorized gather — plus
LEB128 varints for container headers.
"""

from repro.bitio.bits import BitWriter, gather_bits, read_bits
from repro.bitio.varint import decode_uvarint, encode_uvarint

__all__ = [
    "BitWriter",
    "read_bits",
    "gather_bits",
    "encode_uvarint",
    "decode_uvarint",
]
