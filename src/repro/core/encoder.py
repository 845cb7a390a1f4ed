"""The Recoil encoder (paper §4: encode once, record split metadata).

Wraps the interleaved encoder with event recording and split
selection.  The output of :meth:`RecoilEncoder.encode` contains the
*unmodified* interleaved rANS bitstream — Recoil's compatibility claim
(§1): metadata is independent, so the stream remains decodable by any
standard interleaved decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.core.splitter import SplitSelector, SplitterStats
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.interleaved import InterleavedEncoder
from repro.rans.model import SymbolModel


@dataclass
class RecoilEncoded:
    """An encoded stream plus everything needed to decode it."""

    words: np.ndarray  # uint16 payload stream
    final_states: np.ndarray  # uint64, shape (lanes,)
    num_symbols: int
    lanes: int
    quant_bits: int
    metadata: RecoilMetadata
    splitter_stats: SplitterStats

    @property
    def payload_bytes(self) -> int:
        return 2 * len(self.words)


class RecoilEncoder:
    """Encode a symbol sequence once, with decoder-adaptive metadata.

    Parameters
    ----------
    provider:
        Model provider (or a bare :class:`SymbolModel` for static
        coding).
    lanes:
        Interleave width ``K`` (Table 3 recommends 32).
    window:
        Candidate search window for the split heuristic (§4.2).
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
        window: int = 48,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.lanes = lanes
        self.window = window
        self._encoder = InterleavedEncoder(provider, lanes)

    def encode(self, data: np.ndarray, num_threads: int) -> RecoilEncoded:
        """Encode ``data`` and select up to ``num_threads - 1`` splits.

        ``num_threads`` is the *maximum parallelism the server intends
        to support* (§3.3); decoders with less capability receive
        combined (subsampled) metadata at serve time.  The interleaved
        pass runs on the fused wide-lane encode kernel, which records
        the renormalization events in-kernel; the split selector
        consumes the preassembled event arrays directly.
        """
        enc = self._encoder.encode(data, record_events=True)
        selector = SplitSelector(
            enc.events, self.lanes, enc.num_symbols, window=self.window
        )
        metadata, stats = selector.select(num_threads)
        return RecoilEncoded(
            words=enc.words,
            final_states=enc.final_states,
            num_symbols=enc.num_symbols,
            lanes=self.lanes,
            quant_bits=self.provider.quant_bits,
            metadata=metadata,
            splitter_stats=stats,
        )
