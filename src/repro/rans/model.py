"""Quantized probability models for rANS coding.

A :class:`SymbolModel` holds the quantized PDF ``f(t)`` and CDF ``F(t)``
of paper Definition 2.1, both quantized to ``[0, 2**n]``, plus the
slot-to-symbol lookup table used by the decoder's symbol search
(Eq. 2).  Models are immutable once built.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.bitio.varint import decode_uvarint, encode_uvarint
from repro.errors import ModelError
from repro.rans.constants import validate_quant_bits


def quantize_counts(counts: np.ndarray, quant_bits: int) -> np.ndarray:
    """Quantize raw symbol counts to frequencies summing to ``2**n``.

    Every symbol with a non-zero count receives a frequency of at least
    1 so it stays encodable; the residual after flooring is distributed
    to the symbols where rounding error costs the most bits (largest
    ``count / freq`` ratio), which is the standard minimum-redundancy
    heuristic.

    Parameters
    ----------
    counts:
        1-D array of non-negative symbol occurrence counts.
    quant_bits:
        Quantization level ``n``; frequencies sum to ``2**n``.

    Returns
    -------
    numpy.ndarray
        ``uint32`` frequency array of the same shape, summing exactly to
        ``2**n``.  Symbols with zero count get zero frequency.
    """
    validate_quant_bits(quant_bits)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ModelError(f"counts must be 1-D, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ModelError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ModelError("counts must contain at least one occurrence")
    target = 1 << quant_bits
    present = counts > 0
    num_present = int(present.sum())
    if num_present > target:
        raise ModelError(
            f"{num_present} distinct symbols cannot all receive a "
            f"non-zero frequency at quantization level {quant_bits} "
            f"(budget {target})"
        )

    scaled = counts * (target / total)
    freqs = np.floor(scaled).astype(np.int64)
    freqs[present & (freqs == 0)] = 1

    # Correct the residual so frequencies sum exactly to 2**n.
    residual = target - int(freqs.sum())
    if residual > 0:
        # Give extra slots to the symbols whose frequency most
        # under-represents their count (one vectorized pass).
        ratio = np.where(present, counts / np.maximum(freqs, 1), -np.inf)
        order = np.argsort(-ratio, kind="stable")
        bump, i = residual, 0
        while bump > 0:
            take = min(bump, num_present)
            freqs[order[i : i + take]] += 1
            bump -= take
            i = 0  # wrap around for pathological cases
    elif residual < 0:
        # Take slots back where it hurts least, never below 1.
        while residual < 0:
            shrinkable = present & (freqs > 1)
            count = int(shrinkable.sum())
            if count == 0:
                raise ModelError(
                    "cannot quantize: too many symbols for the budget"
                )
            ratio = np.where(shrinkable, counts / np.maximum(freqs, 1), np.inf)
            take = min(-residual, count)
            idx = np.argpartition(ratio, take - 1)[:take]
            freqs[idx] -= 1
            residual += take

    assert int(freqs.sum()) == target
    return freqs.astype(np.uint32)


class SymbolModel:
    """Immutable quantized PDF/CDF pair plus decoder lookup tables.

    Parameters
    ----------
    freqs:
        ``uint32`` array of quantized frequencies summing to ``2**n``.
        Zero entries mark symbols that cannot be encoded.
    quant_bits:
        Quantization level ``n`` (``1 <= n <= 16``).

    Notes
    -----
    The decoder's symbol search (Eq. 2: find ``t`` with
    ``F(t) <= x mod 2**n < F(t+1)``) is implemented as a direct LUT of
    size ``2**n`` mapping slot to symbol.
    """

    __slots__ = ("freqs", "cdf", "quant_bits", "__dict__")

    def __init__(self, freqs: np.ndarray, quant_bits: int) -> None:
        validate_quant_bits(quant_bits)
        freqs = np.ascontiguousarray(freqs, dtype=np.uint32)
        if freqs.ndim != 1:
            raise ModelError(f"freqs must be 1-D, got shape {freqs.shape}")
        total = int(freqs.sum(dtype=np.uint64))
        if total != 1 << quant_bits:
            raise ModelError(
                f"frequencies sum to {total}, expected {1 << quant_bits}"
            )
        self.freqs = freqs
        self.freqs.setflags(write=False)
        self.quant_bits = quant_bits
        cdf = np.zeros(len(freqs) + 1, dtype=np.uint32)
        np.cumsum(freqs, out=cdf[1:])
        self.cdf = cdf
        self.cdf.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_counts(cls, counts: np.ndarray, quant_bits: int) -> "SymbolModel":
        """Build a model from raw occurrence counts (static modelling)."""
        return cls(quantize_counts(counts, quant_bits), quant_bits)

    @classmethod
    def from_data(
        cls,
        data: np.ndarray,
        quant_bits: int,
        alphabet_size: int | None = None,
    ) -> "SymbolModel":
        """Build a static model from a symbol sequence.

        ``alphabet_size`` defaults to ``max(data) + 1``; pass 256 or
        65536 explicitly to fix the alphabet irrespective of content.
        """
        data = np.asarray(data)
        if data.size == 0:
            raise ModelError("cannot model an empty sequence")
        if alphabet_size is None:
            alphabet_size = int(data.max()) + 1
        counts = np.bincount(data.ravel(), minlength=alphabet_size)
        if len(counts) > alphabet_size:
            raise ModelError(
                f"data contains symbol {int(data.max())} outside the "
                f"alphabet of size {alphabet_size}"
            )
        return cls.from_counts(counts, quant_bits)

    @classmethod
    def uniform(cls, alphabet_size: int, quant_bits: int) -> "SymbolModel":
        """A uniform model (useful for tests and worst-case data)."""
        validate_quant_bits(quant_bits)
        target = 1 << quant_bits
        if alphabet_size > target:
            raise ModelError(
                f"alphabet of {alphabet_size} needs n >= "
                f"{int(np.ceil(np.log2(alphabet_size)))}"
            )
        base = target // alphabet_size
        freqs = np.full(alphabet_size, base, dtype=np.uint32)
        freqs[: target - base * alphabet_size] += 1
        return cls(freqs, quant_bits)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        return len(self.freqs)

    @property
    def slot_mask(self) -> int:
        """``2**n - 1``; extracts the slot from a state."""
        return (1 << self.quant_bits) - 1

    @cached_property
    def slot_to_symbol(self) -> np.ndarray:
        """LUT of size ``2**n`` mapping slot to decoded symbol.

        dtype is ``uint8`` for alphabets up to 256, else ``uint16``,
        else ``uint32``.
        """
        if self.alphabet_size <= 256:
            dtype = np.uint8
        elif self.alphabet_size <= 65536:
            dtype = np.uint16
        else:
            dtype = np.uint32
        lut = np.repeat(
            np.arange(self.alphabet_size, dtype=dtype),
            self.freqs.astype(np.int64),
        )
        assert len(lut) == 1 << self.quant_bits
        lut.setflags(write=False)
        return lut

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Normalized probabilities ``f / 2**n`` as float64."""
        return self.freqs.astype(np.float64) / float(1 << self.quant_bits)

    @cached_property
    def entropy_bits_per_symbol(self) -> float:
        """Shannon entropy of the *quantized* model in bits/symbol."""
        p = self.probabilities[self.probabilities > 0]
        return float(-(p * np.log2(p)).sum())

    def cost_bits(self, data: np.ndarray) -> float:
        """Ideal coded size of ``data`` under this model, in bits."""
        data = np.asarray(data)
        f = self.freqs[data]
        if np.any(f == 0):
            raise ModelError("data contains symbols with zero frequency")
        return float(
            (self.quant_bits - np.log2(f.astype(np.float64))).sum()
        )

    # ------------------------------------------------------------------
    # Serialization: frequencies as uvarints (simple, compact enough)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the model (quant level, alphabet, frequencies)."""
        out = bytearray()
        out += encode_uvarint(self.quant_bits)
        out += encode_uvarint(self.alphabet_size)
        # Run-length encode zero runs: common for sparse alphabets.
        i = 0
        freqs = self.freqs
        n = len(freqs)
        while i < n:
            if freqs[i] == 0:
                j = i
                while j < n and freqs[j] == 0:
                    j += 1
                out += encode_uvarint(0)
                out += encode_uvarint(j - i)
                i = j
            else:
                out += encode_uvarint(int(freqs[i]))
                i += 1
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, offset: int = 0) -> tuple["SymbolModel", int]:
        """Inverse of :meth:`to_bytes`; returns ``(model, new_offset)``."""
        quant_bits, pos = decode_uvarint(blob, offset)
        alphabet, pos = decode_uvarint(blob, pos)
        # A varint can claim a 2^60-symbol alphabet; refuse before the
        # allocation below turns a flipped bit into a MemoryError.
        if alphabet > 1 << 24:
            raise ModelError(
                f"implausible alphabet size {alphabet} in model blob"
            )
        freqs = np.zeros(alphabet, dtype=np.uint32)
        i = 0
        while i < alphabet:
            value, pos = decode_uvarint(blob, pos)
            if value == 0:
                run, pos = decode_uvarint(blob, pos)
                if run == 0 or i + run > alphabet:
                    raise ModelError("corrupt zero-run in model blob")
                i += run
            else:
                freqs[i] = value
                i += 1
        return cls(freqs, quant_bits), pos

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolModel):
            return NotImplemented
        return self.quant_bits == other.quant_bits and np.array_equal(
            self.freqs, other.freqs
        )

    def __hash__(self) -> int:
        return hash((self.quant_bits, self.freqs.tobytes()))

    def __repr__(self) -> str:
        return (
            f"SymbolModel(alphabet={self.alphabet_size}, "
            f"n={self.quant_bits}, "
            f"H={self.entropy_bits_per_symbol:.3f} bits/sym)"
        )
