"""Recoil core: the paper's primary contribution.

Encode once with a single group of interleaved rANS encoders, record
renormalization-point metadata, pick balanced split points, and decode
massively in parallel with the 3-phase procedure — scaling metadata to
each decoder's capability by simply dropping entries.
"""

from repro.core.api import (
    RecoilCodec,
    recoil_compress,
    recoil_decompress,
    recoil_service,
    recoil_shrink,
)
from repro.core.container import (
    ParsedContainer,
    build_container,
    parse_container,
    shrink_container,
)
from repro.core.decoder import (
    RecoilDecodeResult,
    RecoilDecoder,
    build_thread_tasks,
)
from repro.core.encoder import RecoilEncoded, RecoilEncoder
from repro.core.metadata import RecoilMetadata
from repro.core.serialization import (
    metadata_size_bytes,
    parse_metadata,
    serialize_metadata,
)
from repro.core.sidecar import (
    build_sidecar,
    parse_sidecar,
    payload_checksum,
    shrink_sidecar,
)
from repro.core.splitter import SplitSelector, SplitterStats

__all__ = [
    "RecoilCodec",
    "recoil_compress",
    "recoil_decompress",
    "recoil_service",
    "recoil_shrink",
    "RecoilEncoder",
    "RecoilEncoded",
    "RecoilDecoder",
    "RecoilDecodeResult",
    "build_thread_tasks",
    "RecoilMetadata",
    "SplitSelector",
    "SplitterStats",
    "serialize_metadata",
    "parse_metadata",
    "metadata_size_bytes",
    "ParsedContainer",
    "build_container",
    "parse_container",
    "shrink_container",
    "build_sidecar",
    "parse_sidecar",
    "shrink_sidecar",
    "payload_checksum",
]
