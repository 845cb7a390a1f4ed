"""Recoil container format.

A self-contained byte layout for an encoded stream::

    magic   b"RCL1"
    u8      version (=1)
    u8      flags   (bit 0: static model embedded)
    u8      quant_bits
    uvarint lanes
    uvarint num_symbols
    uvarint num_words
    u32 LE  final_states        (lanes entries)
    [model blob]                (when flag bit 0; SymbolModel format)
    metadata section            (§4.3 format, self-delimiting)
    payload                     (num_words x u16 LE)

The *payload never moves*: server-side shrinking
(:func:`shrink_container`, and the serving store) re-serializes only
the metadata section and splices it between the unchanged head and
payload at the offsets the parse recorded
(:meth:`ParsedContainer.splice`) — the real-time, no-re-encoding
operation of paper §3.3.  A metadata section written with
wider-than-minimal width fields parses, and shrinks, like any other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.bitio.varint import decode_uvarint, encode_uvarint
from repro.core.encoder import RecoilEncoded
from repro.core.metadata import RecoilMetadata
from repro.core.serialization import parse_metadata, serialize_metadata
from repro.errors import ContainerError, MetadataError, ModelError
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.model import SymbolModel

MAGIC = b"RCL1"
VERSION = 1
FLAG_STATIC_MODEL = 0x01


@dataclass
class ParsedContainer:
    """Decoded view of a container's sections."""

    quant_bits: int
    lanes: int
    num_symbols: int
    num_words: int
    final_states: np.ndarray
    metadata: RecoilMetadata
    provider: AdaptiveModelProvider | None
    metadata_offset: int  # byte offset of the metadata section
    payload_offset: int  # byte offset of the word payload

    def words(self, blob: bytes) -> np.ndarray:
        return np.frombuffer(
            blob,
            dtype="<u2",
            count=self.num_words,
            offset=self.payload_offset,
        )

    def splice(self, blob: bytes, metadata_section: bytes) -> bytes:
        """``blob`` (the container this parse describes) with its
        metadata section replaced by ``metadata_section``: the head
        and the payload are copied once, from views of ``blob`` at
        the parsed offsets, into the one result."""
        view = memoryview(blob)
        return b"".join(
            (
                view[: self.metadata_offset],
                metadata_section,
                view[self.payload_offset :],
            )
        )


def build_container(
    encoded: RecoilEncoded,
    provider: AdaptiveModelProvider | None = None,
    embed_model: bool = True,
) -> bytes:
    """Assemble the container bytes for an encoded stream.

    ``provider`` must be given when ``embed_model`` is set; adaptive
    providers are never embedded (their side information travels in
    the enclosing format, e.g. an image codec's hyperprior) — pass
    ``embed_model=False`` for those.
    """
    flags = 0
    model_blob = b""
    if embed_model:
        if provider is None or not provider.is_static:
            raise ContainerError(
                "embed_model requires a static provider; adaptive "
                "model banks travel out of band"
            )
        flags |= FLAG_STATIC_MODEL
        model_blob = provider.models[0].to_bytes()

    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(flags)
    out.append(encoded.quant_bits)
    out += encode_uvarint(encoded.lanes)
    out += encode_uvarint(encoded.num_symbols)
    out += encode_uvarint(len(encoded.words))
    out += np.asarray(encoded.final_states, dtype="<u4").tobytes()
    out += model_blob
    out += serialize_metadata(encoded.metadata)
    out += np.asarray(encoded.words, dtype="<u2").tobytes()
    return bytes(out)


def parse_container(
    blob: bytes,
    provider: AdaptiveModelProvider | None = None,
    require_model: bool = True,
) -> ParsedContainer:
    """Parse a container; builds a static provider from the embedded
    model when present, else requires ``provider`` (unless
    ``require_model`` is false — metadata-only operations like
    :func:`shrink_container` need no model).

    The error surface is strict: any malformed input — truncation, bit
    flips, nonsense length fields — raises :class:`ContainerError` or
    :class:`MetadataError`, never a builtin like ``IndexError`` or
    ``struct.error``.  Ingest paths (``AssetStore.put_container``,
    ``recoil info``) rely on this to treat untrusted bytes uniformly.
    """
    try:
        return _parse_container(blob, provider, require_model)
    except (ContainerError, MetadataError):
        raise
    except ModelError as exc:
        raise ContainerError(f"embedded model invalid: {exc}") from exc
    except (
        ValueError,
        IndexError,
        KeyError,
        OverflowError,
        MemoryError,
        struct.error,
    ) as exc:
        raise ContainerError(
            f"malformed container ({type(exc).__name__}: {exc})"
        ) from exc


def _parse_container(
    blob: bytes,
    provider: AdaptiveModelProvider | None,
    require_model: bool,
) -> ParsedContainer:
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad magic {blob[:4]!r}")
    if len(blob) < 7:
        raise ContainerError("truncated header")
    version = blob[4]
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    flags = blob[5]
    quant_bits = blob[6]
    pos = 7
    lanes, pos = decode_uvarint(blob, pos)
    num_symbols, pos = decode_uvarint(blob, pos)
    num_words, pos = decode_uvarint(blob, pos)
    if pos + 4 * lanes > len(blob):
        raise ContainerError("truncated final states")
    final_states = np.frombuffer(
        blob, dtype="<u4", count=lanes, offset=pos
    ).astype(np.uint64)
    pos += 4 * lanes

    if flags & FLAG_STATIC_MODEL:
        model, pos = SymbolModel.from_bytes(blob, pos)
        if model.quant_bits != quant_bits:
            raise ContainerError(
                "embedded model quantization disagrees with header"
            )
        provider = StaticModelProvider(model)
    elif provider is None and require_model:
        raise ContainerError(
            "container has no embedded model; pass the adaptive "
            "provider used for encoding"
        )

    metadata_offset = pos
    metadata, pos = parse_metadata(blob, pos)
    if (
        metadata.num_symbols != num_symbols
        or metadata.num_words != num_words
        or metadata.lanes != lanes
    ):
        raise ContainerError("metadata geometry disagrees with header")
    if pos + 2 * num_words > len(blob):
        raise ContainerError("truncated payload")
    return ParsedContainer(
        quant_bits=quant_bits,
        lanes=lanes,
        num_symbols=num_symbols,
        num_words=num_words,
        final_states=final_states,
        metadata=metadata,
        provider=provider,
        metadata_offset=metadata_offset,
        payload_offset=pos,
    )


def shrink_container(blob: bytes, target_threads: int) -> bytes:
    """Server-side real-time metadata shrinking (§3.3).

    Combines splits down to ``target_threads`` by dropping metadata
    entries; the payload (and embedded model, if any) are spliced
    through untouched.  This is the operation a content server runs
    per request, keyed by the client's advertised parallel capacity.
    """
    if target_threads < 1:
        raise MetadataError(
            f"target_threads must be >= 1, got {target_threads}"
        )
    parsed = parse_container(blob, require_model=False)
    combined = parsed.metadata.combine(target_threads)
    return parsed.splice(blob, serialize_metadata(combined))
