"""Measurement and reporting utilities."""

from repro.stats.entropy import (
    empirical_entropy,
    ideal_compressed_bytes,
    kl_divergence_bits,
)
from repro.stats.report import Table, format_bytes, format_delta
from repro.stats.timing import alternating_rounds, symbol_rate

__all__ = [
    "empirical_entropy",
    "ideal_compressed_bytes",
    "kl_divergence_bits",
    "Table",
    "format_bytes",
    "format_delta",
    "alternating_rounds",
    "symbol_rate",
]
