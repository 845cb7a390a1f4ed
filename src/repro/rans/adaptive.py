"""Adaptive (per-symbol-index) probability modelling.

Paper §3.1 lists as a key advantage of recording symbol indices in the
split metadata that *adaptive coding* remains possible: "the
probability distribution used in every iteration is dynamic, determined
using symbol index as a key in many image codecs that use
hyperprior-based context".  This module provides that machinery:

- :class:`StaticModelProvider` — one model for every index (text and
  ``rand_*`` experiments).
- :class:`IndexedModelProvider` — an arbitrary per-index mapping into a
  bank of models (the div2k/mbt2018-mean experiments: each latent gets
  a Gaussian whose scale comes from the hyperprior).
- :class:`GaussianModelBank` — quantized zero-mean Gaussian models over
  a discrete scale table, mirroring learned-image-codec entropy
  parameter banks.

All providers expose dense tables (``freq_table``, ``cdf_table``, and
the kernels' slot- and symbol-indexed ``decode_tables`` and
``encode_tables``) so the vectorized kernels can gather per-symbol
parameters with single numpy fancy-indexing operations.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.rans.model import SymbolModel


@dataclass(frozen=True)
class EncodeTables:
    """Symbol-indexed gather tables for the fused encode kernel.

    One row per model, one column per symbol plus a last column for
    the *identity symbol*, everything uint64 so the kernel's per-group
    gathers land directly in the state dtype — the encode-side mirror
    of :class:`DecodeTables`:

    - ``freq_sym[m, s]`` — ``f(s)``, the Eq. 1 divisor;
    - ``cdf_sym[m, s]``  — ``F(s)``.

    The identity column holds ``f = 2**n`` and ``F = 0``.  Its Eq. 3
    threshold ``f << (32 - n)`` is ``2**32``, above every encoder
    state, so a lane on it never renormalizes, and Eq. 1 gives
    ``x + (x // 2**n) * 0 + 0 = x``: the kernel pads every task to
    whole interleave groups with it and no output changes.

    The 2-D tables are C-contiguous; ``.ravel()`` views of them are
    used for flat gathers of ``model_id * (alphabet + 1) + symbol``.
    Zero-frequency symbols keep a zero ``freq_sym`` entry; the kernel
    checks gathered frequencies and rejects them before dividing.
    """

    freq_sym: np.ndarray  # (num_models, alphabet + 1) uint64
    cdf_sym: np.ndarray  # (num_models, alphabet + 1) uint64

    @property
    def alphabet(self) -> int:
        """The alphabet size, which is also the identity symbol."""
        return self.freq_sym.shape[1] - 1


@dataclass(frozen=True)
class DecodeTables:
    """Slot-indexed gather tables for the fused decode kernel.

    One row per model, one column per slot value ``x & (2**n - 1)``.
    Everything the Eq. 2 inner loop needs is resolved by a *single*
    gather per operand — no dependent symbol→frequency lookup, no
    per-iteration dtype casts:

    - ``sym_slot[m, slot]``  — the decoded symbol, stored in the
      provider's :attr:`~AdaptiveModelProvider.out_dtype` (so output
      scatters need no cast), and as uint64 in :attr:`sym_u64`, the
      table the compiled walk gathers from;
    - ``freq_slot[m, slot]`` — ``f(sym)`` as uint64;
    - ``bias_slot[m, slot]`` — ``slot - F(sym)`` as uint64 (always in
      ``[0, f)``), so the state update collapses to
      ``x = freq_slot[slot] * (x >> n) + bias_slot[slot]``.

    The 2-D tables are C-contiguous; ``.ravel()`` views of them are
    used for flat gathers of ``model_id * 2**n + slot``.
    """

    sym_slot: np.ndarray  # (num_models, 2**n) uint8/16/32
    freq_slot: np.ndarray  # (num_models, 2**n) uint64
    bias_slot: np.ndarray  # (num_models, 2**n) uint64

    @property
    def slot_count(self) -> int:
        return self.sym_slot.shape[1]

    @functools.cached_property
    def sym_u64(self) -> np.ndarray:
        """``sym_slot`` as uint64, built on the compiled walk's first
        use."""
        return self.sym_slot.astype(np.uint64)

    @functools.cached_property
    def packed(self) -> np.ndarray | None:
        """The compiled walk's SIMD table (DESIGN.md §19): one uint32
        ``freq | bias << 12 | sym << 24`` per slot, built on its first
        use.  ``None`` above n = 12, where no committed benchmark shows
        the SIMD body winning, and unless every entry fits its field
        and has ``freq <= 2**n`` and ``bias < freq``, the bounds that
        keep 32-bit state arithmetic exact."""
        freq, bias = self.freq_slot, self.bias_slot
        sym = self.sym_slot.astype(np.uint64)
        if not (
            self.slot_count <= 1 << 12
            and np.all(freq <= min(self.slot_count, 0xFFF))
            and np.all(bias < freq)
            and np.all(sym <= 0xFF)
        ):
            return None
        return (freq | bias << np.uint64(12) | sym << np.uint64(24)).astype(
            np.uint32
        )


class AdaptiveModelProvider:
    """Base class: a bank of models plus an index→model mapping.

    Subclasses must populate ``_models`` (list of :class:`SymbolModel`
    sharing one quantization level) and implement
    :meth:`model_ids_for_range`.
    """

    def __init__(self, models: list[SymbolModel]) -> None:
        if not models:
            raise ModelError("provider needs at least one model")
        quant = {m.quant_bits for m in models}
        if len(quant) != 1:
            raise ModelError(
                f"all models in a provider must share one quantization "
                f"level, got {sorted(quant)}"
            )
        alpha = {m.alphabet_size for m in models}
        if len(alpha) != 1:
            raise ModelError(
                f"all models in a provider must share one alphabet, "
                f"got {sorted(alpha)}"
            )
        self._models = list(models)
        self.quant_bits = models[0].quant_bits
        self.alphabet_size = models[0].alphabet_size
        self._freq_table: np.ndarray | None = None
        self._cdf_table: np.ndarray | None = None
        self._decode_tables: DecodeTables | None = None
        self._encode_tables: EncodeTables | None = None
        self._dense_ids: np.ndarray | None = None

    # -- dense tables ---------------------------------------------------

    @property
    def num_models(self) -> int:
        return len(self._models)

    @property
    def out_dtype(self) -> np.dtype:
        """Narrowest unsigned dtype covering the alphabet — the one
        policy for decoded-output arrays, shared by every decode
        surface (core decoder, Conventional baseline, serving)."""
        a = self.alphabet_size
        return np.dtype(
            np.uint8 if a <= 256 else np.uint16 if a <= 65536 else np.uint32
        )

    @property
    def models(self) -> list[SymbolModel]:
        return self._models

    @property
    def freq_table(self) -> np.ndarray:
        """``(num_models, alphabet)`` uint32 frequency table."""
        if self._freq_table is None:
            self._freq_table = np.stack([m.freqs for m in self._models])
        return self._freq_table

    @property
    def cdf_table(self) -> np.ndarray:
        """``(num_models, alphabet + 1)`` uint32 CDF table."""
        if self._cdf_table is None:
            self._cdf_table = np.stack([m.cdf for m in self._models])
        return self._cdf_table

    @property
    def decode_tables(self) -> DecodeTables:
        """Pre-materialized slot-indexed tables (built once, cached).

        These are what the fused kernel gathers from; building them
        here keeps every per-call ``.astype`` out of the hot loop.
        """
        if self._decode_tables is None:
            n = self.quant_bits
            slot_count = 1 << n
            sym_dtype = self.out_dtype
            M = self.num_models
            slots = np.arange(slot_count, dtype=np.uint64)
            sym = np.empty((M, slot_count), dtype=sym_dtype)
            freq = np.empty((M, slot_count), dtype=np.uint64)
            bias = np.empty((M, slot_count), dtype=np.uint64)
            for k, m in enumerate(self._models):
                lut = m.slot_to_symbol
                sym[k] = lut.astype(sym_dtype, copy=False)
                freq[k] = m.freqs[lut]
                bias[k] = slots - m.cdf[lut].astype(np.uint64)
            self._decode_tables = DecodeTables(sym, freq, bias)
        return self._decode_tables

    @property
    def encode_tables(self) -> EncodeTables:
        """Pre-materialized symbol-indexed tables (built once, cached).

        The fused encode kernel gathers from these; building them here
        keeps every per-call ``.astype`` out of the hot loop (the
        encode mirror of :attr:`decode_tables`).
        """
        if self._encode_tables is None:
            shape = (self.num_models, self.alphabet_size + 1)
            freq = np.full(shape, 1 << self.quant_bits, dtype=np.uint64)
            cdf = np.zeros(shape, dtype=np.uint64)
            freq[:, :-1] = self.freq_table
            cdf[:, :-1] = self.cdf_table[:, :-1]
            self._encode_tables = EncodeTables(freq, cdf)
        return self._encode_tables

    def dense_model_ids(self, total_symbols: int) -> np.ndarray:
        """Cached uint64 model id per 0-based symbol position.

        ``dense_model_ids(N)[i]`` is the model id for 1-based symbol
        index ``i + 1``; uint64 so the fused kernel can fold it into
        flat-gather arithmetic without casts.  The index→model mapping
        is length-independent, so the longest array built so far
        serves every shorter request as a prefix view (and the single
        read/replace of the cache slot keeps concurrent readers on a
        consistent array).
        """
        ids = self._dense_ids
        if ids is None or len(ids) < total_symbols:
            ids = np.ascontiguousarray(
                self.model_ids_for_range(1, total_symbols + 1),
                dtype=np.uint64,
            )
            self._dense_ids = ids
        return ids[:total_symbols]

    # -- the index mapping ----------------------------------------------

    def model_ids_for_range(self, start: int, stop: int) -> np.ndarray:
        """Model ids for 1-based symbol indices ``start..stop-1``.

        Must be overridden; returns an ``intp`` array of length
        ``stop - start``.
        """
        raise NotImplementedError

    def model_for_index(self, index: int) -> SymbolModel:
        """The model used for 1-based symbol index ``index``."""
        mid = int(self.model_ids_for_range(index, index + 1)[0])
        return self._models[mid]

    # -- vectorized gathers ----------------------------------------------

    def gather_freq_cdf(
        self, data: np.ndarray, start_index: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-symbol ``(f, F)`` as uint64 arrays for an encode pass.

        ``data[k]`` is the symbol at 1-based index ``start_index + k``.
        """
        n = len(data)
        ids = self.model_ids_for_range(start_index, start_index + n)
        f = self.freq_table[ids, data].astype(np.uint64)
        if np.any(f == 0):
            bad = int(np.flatnonzero(f == 0)[0])
            raise ModelError(
                f"symbol {int(data[bad])} at index {start_index + bad} "
                "has zero quantized frequency"
            )
        cdf = self.cdf_table[ids, data].astype(np.uint64)
        return f, cdf

    @property
    def is_static(self) -> bool:
        return self.num_models == 1

    def table_bytes(self) -> int:
        """Serialized size of the model table(s), for size accounting."""
        return sum(len(m.to_bytes()) for m in self._models)


class StaticModelProvider(AdaptiveModelProvider):
    """Every symbol index uses the same model."""

    def __init__(self, model: SymbolModel) -> None:
        super().__init__([model])

    def model_ids_for_range(self, start: int, stop: int) -> np.ndarray:
        return np.zeros(stop - start, dtype=np.intp)


def provider_fingerprint(provider: AdaptiveModelProvider) -> bytes:
    """Content fingerprint of a static provider's model.

    Fusion keys (serve batching) must group by *model equality*, not
    provider identity: callers routinely parse their own
    :class:`StaticModelProvider` from embedded model bytes, so
    ``id(provider)`` would silently forbid fusing identical models.
    Computed once and cached on the provider instance.
    """
    fp = getattr(provider, "_model_fingerprint", None)
    if fp is None:
        model = provider.models[0]
        digest = hashlib.sha256(np.ascontiguousarray(model.freqs)).digest()
        fp = bytes([provider.quant_bits]) + digest
        provider._model_fingerprint = fp
    return fp


class IndexedModelProvider(AdaptiveModelProvider):
    """Explicit per-index model ids (1-based index ``i`` → ``ids[i-1]``)."""

    def __init__(self, models: list[SymbolModel], ids: np.ndarray) -> None:
        super().__init__(models)
        ids = np.ascontiguousarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ModelError("ids must be 1-D")
        if ids.size and (ids.min() < 0 or ids.max() >= len(models)):
            raise ModelError("model id out of range")
        self.ids = ids

    def model_ids_for_range(self, start: int, stop: int) -> np.ndarray:
        if start < 1 or stop - 1 > len(self.ids):
            raise ModelError(
                f"index range [{start}, {stop}) outside the modelled "
                f"sequence of length {len(self.ids)}"
            )
        return self.ids[start - 1 : stop - 1]


class GaussianModelBank:
    """Bank of quantized zero-mean Gaussian models over a scale table.

    Mirrors the entropy-parameter banks of hyperprior image codecs
    (Ballé 2018 / Minnen 2018 "mbt2018-mean"): the hyperprior assigns
    every latent a scale; the codec quantizes the scale to a table and
    codes the latent with the matching discrete Gaussian.

    Symbols are unsigned: value ``v`` represents the centred residual
    ``v - center`` where ``center = alphabet_size // 2``.
    """

    #: CompressAI-style logarithmic scale table bounds.
    SCALE_MIN = 0.11
    SCALE_MAX = 256.0

    def __init__(
        self,
        quant_bits: int,
        alphabet_size: int = 65536,
        num_scales: int = 64,
        tail_mass: float = 1e-9,
    ) -> None:
        self.quant_bits = quant_bits
        self.alphabet_size = alphabet_size
        self.center = alphabet_size // 2
        self.scales = np.exp(
            np.linspace(
                math.log(self.SCALE_MIN),
                math.log(self.SCALE_MAX),
                num_scales,
            )
        )
        self.tail_mass = tail_mass
        self._models: list[SymbolModel] | None = None

    def _pmf_for_scale(self, scale: float) -> np.ndarray:
        """Discrete Gaussian pmf over the alphabet, tails clipped."""
        from scipy.special import erf

        half_width = min(
            self.center - 1, max(4, int(math.ceil(8 * scale)) + 2)
        )
        lo = self.center - half_width
        hi = self.center + half_width
        edges = np.arange(lo, hi + 2, dtype=np.float64) - 0.5 - self.center
        z = edges / (scale * math.sqrt(2.0))
        cdf = 0.5 * (1.0 + erf(z))
        pmf_win = np.diff(cdf)
        pmf_win = np.maximum(pmf_win, 0.0)
        pmf_win[pmf_win < self.tail_mass] = 0.0
        # Always keep the centre encodable.
        if pmf_win[half_width] == 0.0:
            pmf_win[half_width] = 1.0
        pmf = np.zeros(self.alphabet_size, dtype=np.float64)
        pmf[lo : hi + 1] = pmf_win
        return pmf

    @property
    def models(self) -> list[SymbolModel]:
        """Quantized models, one per scale (built lazily, cached)."""
        if self._models is None:
            self._models = [
                SymbolModel.from_counts(
                    self._pmf_for_scale(float(s)) * 1e12, self.quant_bits
                )
                for s in self.scales
            ]
        return self._models

    def scale_to_id(self, scales: np.ndarray) -> np.ndarray:
        """Quantize continuous scales to table indices (lower bound)."""
        scales = np.asarray(scales, dtype=np.float64)
        ids = np.searchsorted(self.scales, scales, side="left")
        return np.clip(ids, 0, len(self.scales) - 1).astype(np.intp)

    def provider_for_scales(self, scales: np.ndarray) -> IndexedModelProvider:
        """Build a per-index provider from a per-symbol scale array."""
        return IndexedModelProvider(self.models, self.scale_to_id(scales))

    def provider_for_ids(self, ids: np.ndarray) -> IndexedModelProvider:
        """Build a per-index provider from precomputed scale ids."""
        return IndexedModelProvider(self.models, ids)
