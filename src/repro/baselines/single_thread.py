"""Baseline (A): Single-Thread 32-way interleaved rANS.

Exactly the Conventional codec with one partition — matching the
paper, where the Single-Thread baseline is the standard 32-way
interleaved coder and serves as the compression-rate reference
(variation (a), Table 4).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.conventional import ConventionalCodec
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.model import SymbolModel


class SingleThreadCodec(ConventionalCodec):
    """One partition, serial decode; the compression-rate baseline."""

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        super().__init__(provider, lanes)

    def compress(self, data: np.ndarray, partitions: int = 1) -> bytes:
        if partitions != 1:
            raise ValueError("SingleThreadCodec always uses one partition")
        return super().compress(data, 1)
