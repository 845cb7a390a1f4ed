"""Detached ("sidecar") Recoil metadata — the paper's §6 future work.

    "Recoil can be an easy drop-in replacement for the single-threaded
    interleaved rANS coders: the Recoil metadata can be transmitted
    separately so that the coding format does not change."

A *sidecar* is the split metadata serialized on its own, bound to a
specific bitstream by a geometry fingerprint (symbol count, word
count, lane count, and a payload checksum).  The host format keeps
shipping its standard interleaved rANS stream, fully readable by
legacy decoders; Recoil-aware decoders additionally fetch the sidecar
and decode massively in parallel.

Layout::

    magic   b"RCSC"
    u8      version (=2)
    u32 LE  payload checksum (CRC-32 over all the word bytes, LE u16)
    metadata section (§4.3 format)

Version 1 folded only the first 512 KiB of the payload into its
checksum, so it is refused.

Parsing and shrinking are strict: any malformed sidecar — truncated,
bit-flipped, or not a sidecar at all — raises :class:`ContainerError`.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.core.serialization import parse_metadata, serialize_metadata
from repro.errors import ContainerError, MetadataError

MAGIC = b"RCSC"
VERSION = 2
HEADER_BYTES = 9  # magic, version, checksum


def payload_checksum(words: np.ndarray) -> int:
    """CRC-32 over every byte of the word stream (little-endian u16),
    the CRC the disk records and the wire use.

    Binds sidecar and payload — catches pairing a sidecar with the
    wrong (or re-encoded, or damaged) bitstream before the decoder
    trips over misaligned reads or decodes silently wrong.
    """
    return zlib.crc32(np.ascontiguousarray(words, dtype="<u2"))


def build_sidecar(metadata: RecoilMetadata, words: np.ndarray) -> bytes:
    """Serialize metadata detached from its bitstream."""
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out += payload_checksum(words).to_bytes(4, "little")
    out += serialize_metadata(metadata)
    return bytes(out)


def parse_sidecar(
    blob: bytes, words: np.ndarray | None = None
) -> RecoilMetadata:
    """Parse a sidecar; verifies the payload binding when ``words``
    is provided."""
    metadata = _parse(blob)
    checksum = int.from_bytes(blob[5:HEADER_BYTES], "little")
    if words is not None:
        if len(words) != metadata.num_words:
            raise ContainerError(
                f"sidecar is for a {metadata.num_words}-word stream, "
                f"got {len(words)} words"
            )
        actual = payload_checksum(words)
        if actual != checksum:
            raise ContainerError(
                "sidecar checksum does not match the payload — wrong "
                "bitstream for this sidecar"
            )
    return metadata


def shrink_sidecar(blob: bytes, target_threads: int) -> bytes:
    """Combine splits inside a detached sidecar (server-side §3.3,
    without touching — or even holding — the payload)."""
    metadata = _parse(blob)
    return blob[:HEADER_BYTES] + serialize_metadata(
        metadata.combine(target_threads)
    )


def _parse(blob: bytes) -> RecoilMetadata:
    """Check the header and parse the metadata section; every
    malformation is a :class:`ContainerError`."""
    if len(blob) < HEADER_BYTES:
        raise ContainerError(
            f"truncated sidecar header ({len(blob)} of {HEADER_BYTES} bytes)"
        )
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad sidecar magic {blob[:4]!r}")
    if blob[4] != VERSION:
        raise ContainerError(f"unsupported sidecar version {blob[4]}")
    try:
        metadata, _ = parse_metadata(blob, HEADER_BYTES)
    except MetadataError as exc:
        raise ContainerError(f"malformed sidecar metadata: {exc}") from exc
    return metadata
