"""Bit-level I/O substrate.

The Recoil metadata format (paper §4.3) packs difference series with a
per-series bit width; this subpackage provides the MSB-first bit writer
and reader used for that, plus LEB128 varints for container headers.
"""

from repro.bitio.bitwriter import BitWriter
from repro.bitio.bitreader import BitReader, gather_bits
from repro.bitio.varint import decode_uvarint, encode_uvarint

__all__ = [
    "BitWriter",
    "BitReader",
    "gather_bits",
    "encode_uvarint",
    "decode_uvarint",
]
