"""High-level Recoil API.

The three verbs of the paper's content-delivery story:

- :func:`recoil_compress` — *encode once* with metadata for the
  maximum parallelism the server intends to support;
- :func:`recoil_shrink` — per-request, real-time metadata reduction to
  a client's advertised capacity (no re-encoding);
- :func:`recoil_decompress` — massively parallel 3-phase decoding.

:class:`RecoilCodec` bundles the same operations around a fixed model
provider for repeated use (and is what the benchmarks drive).
"""

from __future__ import annotations

import numpy as np

from repro.core.container import (
    build_container,
    parse_container,
    shrink_container,
)
from repro.core.decoder import RecoilDecodeResult, RecoilDecoder
from repro.core.encoder import RecoilEncoded, RecoilEncoder
from repro.errors import EncodeError
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.model import SymbolModel


class RecoilCodec:
    """Recoil compressor/decompressor around one model provider."""

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.lanes = lanes
        self._encoder = RecoilEncoder(provider, lanes)
        self._decoder = RecoilDecoder(provider, lanes)

    # -- encoding -------------------------------------------------------

    def encode(self, data: np.ndarray, num_splits: int) -> RecoilEncoded:
        """Encode with up to ``num_splits`` parallel decode segments.

        :param data: symbol array inside the provider's alphabet.
        :param num_splits: decoder parallelism the metadata supports.
        :returns: the encoded stream, final states, and metadata.
        :raises EncodeError: ``num_splits < 1``, or a symbol outside
            the model alphabet (zero quantized frequency).
        """
        if num_splits < 1:
            raise EncodeError(
                f"num_splits must be >= 1, got {num_splits}"
            )
        return self._encoder.encode(data, num_splits)

    def compress(self, data: np.ndarray, num_splits: int) -> bytes:
        """Encode and wrap in a container (static providers embed the
        model; adaptive providers travel out of band).

        :returns: self-contained container bytes (for static
            providers) servable via :meth:`shrink`.
        :raises EncodeError: see :meth:`encode`.
        """
        encoded = self.encode(data, num_splits)
        return build_container(
            encoded,
            provider=self.provider,
            embed_model=self.provider.is_static,
        )

    # -- decoding -------------------------------------------------------

    def decompress(
        self, blob: bytes, max_threads: int | None = None
    ) -> np.ndarray:
        """Decode a container encoded with this codec's provider.

        :param max_threads: optionally combine splits client-side
            before decoding (caps decoder parallelism).
        :returns: the decoded symbol array.
        :raises ContainerError: malformed container bytes.
        :raises MetadataError: corrupt/inconsistent split metadata, or
            ``max_threads < 1``.
        :raises DecodeError: bitstream corruption (exhausted stream,
            lanes not returning to the initial state).
        """
        return self.decompress_with_stats(blob, max_threads).symbols

    def decompress_with_stats(
        self, blob: bytes, max_threads: int | None = None
    ) -> RecoilDecodeResult:
        """Like :meth:`decompress`, also returning the engine work
        counters and workload summary that feed the Figure 7 cost
        model (same raises)."""
        parsed = parse_container(blob, provider=self.provider)
        return self._decoder.decode(
            parsed.words(blob),
            parsed.final_states,
            parsed.metadata,
            max_threads=max_threads,
        )

    # -- serving ----------------------------------------------------------

    def shrink(self, blob: bytes, target_threads: int) -> bytes:
        """Real-time split combining before transmission (§3.3).

        :param target_threads: the client's decoder parallelism.
        :returns: container bytes with combined metadata — the payload
            is byte-identical to the input's, never re-encoded.
        :raises ContainerError: malformed container bytes.
        :raises MetadataError: ``target_threads < 1``.
        """
        return shrink_container(blob, target_threads)


# ---------------------------------------------------------------------------
# Free functions: the one-shot convenience layer.
# ---------------------------------------------------------------------------


def _default_model(data: np.ndarray, quant_bits: int) -> SymbolModel:
    data = np.asarray(data)
    if data.size == 0:
        raise EncodeError("cannot compress an empty sequence")
    alphabet = 256 if int(data.max()) < 256 else 65536
    return SymbolModel.from_data(data, quant_bits, alphabet_size=alphabet)


def recoil_compress(
    data: np.ndarray,
    num_splits: int = 64,
    quant_bits: int = 11,
    model: SymbolModel | None = None,
    lanes: int = DEFAULT_LANES,
) -> bytes:
    """Compress ``data`` into a Recoil container.

    When ``model`` is omitted a static model is fitted to the data
    (and embedded in the container).

    :param data: symbol array (bytes or 16-bit symbols).
    :param num_splits: decoder parallelism the metadata supports.
    :param quant_bits: probability quantization level ``n`` (≤ 16).
    :param model: explicit symbol model; must cover every symbol in
        ``data``.
    :param lanes: interleaved rANS lanes per decoder thread.
    :returns: self-contained container bytes.
    :raises EncodeError: empty input, ``num_splits < 1``, or a symbol
        with zero quantized frequency.
    :raises ModelError: invalid ``quant_bits`` or malformed ``model``.
    """
    if model is None:
        model = _default_model(data, quant_bits)
    return RecoilCodec(model, lanes=lanes).compress(data, num_splits)


def recoil_decompress(
    blob: bytes,
    max_parallelism: int | None = None,
    provider: AdaptiveModelProvider | None = None,
) -> np.ndarray:
    """Decompress a Recoil container.

    ``max_parallelism`` caps the number of decoder threads by
    combining splits client-side; ``provider`` is required for
    containers encoded with adaptive (out-of-band) models.

    :returns: the decoded symbol array.
    :raises ContainerError: malformed container bytes.
    :raises MetadataError: corrupt split metadata, a missing
        out-of-band model, or ``max_parallelism < 1``.
    :raises DecodeError: bitstream corruption.
    """
    parsed = parse_container(blob, provider=provider)
    decoder = RecoilDecoder(parsed.provider, lanes=parsed.lanes)
    result = decoder.decode(
        parsed.words(blob),
        parsed.final_states,
        parsed.metadata,
        max_threads=max_parallelism,
    )
    return result.symbols


def recoil_shrink(blob: bytes, target_threads: int) -> bytes:
    """Combine splits in a container without re-encoding (§3.3).

    :returns: container bytes with metadata for ``target_threads``
        decoder threads (payload byte-identical to the input's).
    :raises ContainerError: malformed container bytes.
    :raises MetadataError: ``target_threads < 1``.
    """
    return shrink_container(blob, target_threads)


def recoil_service(
    assets: dict[str, np.ndarray] | None = None,
    num_splits: int = 1024,
    config=None,
):
    """Build a batched content-delivery service (:mod:`repro.serve`).

    The system-level counterpart of the three verbs above: assets are
    compressed once at ``num_splits`` parallelism, ``serve`` answers
    per-client shrinks from an LRU cache, and concurrent
    ``decompress`` requests are fused into single wide-lane kernel
    dispatches.  ``config`` is a
    :class:`repro.serve.ServiceConfig`; the returned
    :class:`repro.serve.RecoilService` is a context manager — close it
    to stop the dispatcher thread.

    :param assets: name → symbol array, each encoded on ingest.
    :param num_splits: encode-side parallelism for every asset.
    :param config: service tunables (batch window, admission bound,
        ``decode_kernel``).
    :returns: a running :class:`repro.serve.RecoilService`.
    :raises EncodeError: an asset failed to encode (the service is
        closed before re-raising).
    :raises ServeError: invalid ``config`` values.
    """
    from repro.serve import RecoilService

    service = RecoilService(config=config)
    try:
        for name, data in (assets or {}).items():
            service.put_asset(name, data, num_splits=num_splits)
    except BaseException:
        service.close()
        raise
    return service
