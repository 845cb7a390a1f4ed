"""tANS table construction (Duda's tabled ANS, FSE-style).

States live in ``[T, 2T)`` with ``T = 2**table_bits``.  Symbol
frequencies are quantized to sum ``T``; each symbol ``s`` occupies
``f_s`` table positions chosen by a zstd-style spread function.

Decoding a state ``x``: the entry at ``x - T`` yields the symbol, a
bit count ``nb`` and a base; the next state is ``base + readBits(nb)``.
Encoding is the exact inverse: emit the low ``nb`` bits of ``x`` such
that ``x >> nb`` lands in ``[f_s, 2 f_s)``, then jump through the
encode mapping.

Serialization mirrors what *multians* ships to the GPU: a packed
decode-table dump, 4 bytes per state for 8-bit alphabets
(``symbol | nb << 8 | base << 16``), which is why the n=16 variant
costs ~256 KB of side information (Table 6's multians column).
"""

from __future__ import annotations

import numpy as np

from repro.bitio.varint import decode_uvarint, encode_uvarint
from repro.errors import ContainerError, ModelError
from repro.rans.model import quantize_counts


def spread_symbols(freqs: np.ndarray, table_bits: int) -> np.ndarray:
    """zstd-style symbol spread over the table positions.

    Walks positions with the coprime stride
    ``(T >> 1) + (T >> 3) + 3`` so each symbol's occurrences are
    scattered roughly uniformly — the property that makes tANS states
    carry fractional bits (and, incidentally, self-synchronize).
    """
    T = 1 << table_bits
    freqs = np.asarray(freqs, dtype=np.int64)
    total = int(freqs.sum())
    if total != T:
        raise ModelError(
            f"frequencies must sum to table size {T}, got {total}"
        )
    # The walk visits position (j * step) & mask at step j, assigning
    # symbols in frequency-run order — both sides are closed-form, so
    # the whole spread is two vectorized ops instead of T iterations.
    step = (T >> 1) + (T >> 3) + 3
    mask = T - 1
    positions = (np.arange(T, dtype=np.int64) * step) & mask
    spread = np.empty(T, dtype=np.int64)
    spread[positions] = np.repeat(
        np.arange(len(freqs), dtype=np.int64), freqs
    )
    return spread


class TansTable:
    """Complete tANS coding tables for one distribution.

    Attributes
    ----------
    dec_sym, dec_nb, dec_base:
        Per-state decode entries (arrays of length ``T``); the decoder
        for state ``x`` uses index ``x - T``.
    enc_next, enc_sub_offset:
        Encode mapping: symbol ``s`` with sub-state ``sub`` (in
        ``[f_s, 2 f_s)``) transitions to state
        ``enc_next[enc_sub_offset[s] + sub - f_s]``.
    """

    def __init__(self, freqs: np.ndarray, table_bits: int) -> None:
        freqs = np.asarray(freqs, dtype=np.int64)
        self.table_bits = table_bits
        self.table_size = 1 << table_bits
        self.freqs = freqs
        self.alphabet_size = len(freqs)
        spread = spread_symbols(freqs, table_bits)
        self.spread = spread

        T = self.table_size
        dec_sym = spread.copy()
        enc_sub_offset = np.zeros(self.alphabet_size + 1, dtype=np.int64)
        np.cumsum(freqs, out=enc_sub_offset[1:])

        # Per-position sub-state: position p is its symbol's occ-th
        # occurrence (in increasing p, recovered via a stable argsort)
        # and walks sub = f_s + occ through [f_s, 2 f_s).
        order = np.argsort(spread, kind="stable")
        occ = np.empty(T, dtype=np.int64)
        occ[order] = np.arange(T, dtype=np.int64) - np.repeat(
            enc_sub_offset[:-1], freqs
        )
        sub = freqs[spread] + occ
        # Bits needed to lift sub back into [T, 2T):
        # nb = table_bits - (bit_length(sub) - 1), with bit_length via
        # frexp (exact for integers below 2**53).
        _, exp = np.frexp(sub.astype(np.float64))
        dec_nb = table_bits - (exp.astype(np.int64) - 1)
        dec_base = sub << dec_nb
        enc_next = np.empty(T, dtype=np.int64)
        enc_next[enc_sub_offset[spread] + occ] = T + np.arange(
            T, dtype=np.int64
        )
        self.dec_sym = dec_sym
        self.dec_nb = dec_nb
        self.dec_base = dec_base
        self.enc_next = enc_next
        self.enc_sub_offset = enc_sub_offset

    # ------------------------------------------------------------------

    @classmethod
    def from_counts(cls, counts: np.ndarray, table_bits: int) -> "TansTable":
        """Quantize raw counts to the table size and build tables."""
        return cls(
            quantize_counts(counts, table_bits).astype(np.int64), table_bits
        )

    @classmethod
    def from_data(
        cls, data: np.ndarray, table_bits: int, alphabet_size: int | None = None
    ) -> "TansTable":
        data = np.asarray(data)
        if alphabet_size is None:
            alphabet_size = int(data.max()) + 1
        counts = np.bincount(data.ravel(), minlength=alphabet_size)
        return cls.from_counts(counts, table_bits)

    # ------------------------------------------------------------------

    def packed_decode_entries(self) -> np.ndarray:
        """Fused-kernel decode table: one int64 gather per state.

        Entry ``e`` packs ``base << 22 | nb << 17 | ((1 << nb) - 1)``
        (base < 2**17, nb <= 16, mask < 2**17), so the wide kernels
        unpack three fields from a single table lookup instead of
        gathering ``dec_nb``/``dec_base`` separately and recomputing
        the bit mask per step.  Built once per table and cached.
        """
        pk = getattr(self, "_packed_decode", None)
        if pk is None:
            nb = self.dec_nb.astype(np.int64)
            pk = (
                (self.dec_base.astype(np.int64) << 22)
                | (nb << 17)
                | ((np.int64(1) << nb) - 1)
            )
            self._packed_decode = pk
        return pk

    @property
    def entropy_bits_per_symbol(self) -> float:
        p = self.freqs / self.table_size
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    def dump_bytes(self) -> int:
        """Size of the GPU-ready decode-table dump (what multians
        transfers): 4 bytes per state for 8-bit alphabets, 5 otherwise,
        plus a small header."""
        per_state = 4 if self.alphabet_size <= 256 else 5
        return per_state * self.table_size + 8

    def to_bytes(self) -> bytes:
        """Serialize as a decode-table dump (multians wire format)."""
        out = bytearray()
        out += encode_uvarint(self.table_bits)
        out += encode_uvarint(self.alphabet_size)
        if self.alphabet_size <= 256:
            packed = (
                self.dec_sym.astype(np.uint32)
                | (self.dec_nb.astype(np.uint32) << np.uint32(8))
                | (self.dec_base.astype(np.uint32) << np.uint32(16))
            )
            # base < 2**(table_bits+1) <= 2**17 overflows 16 bits only
            # when table_bits = 16; use explicit fields there instead.
            if self.table_bits <= 15:
                out += packed.astype("<u4").tobytes()
            else:
                out += self.dec_sym.astype("<u1").tobytes()
                out += self.dec_nb.astype("<u1").tobytes()
                out += self.dec_base.astype("<u4").tobytes()
        else:
            out += self.dec_sym.astype("<u2").tobytes()
            out += self.dec_nb.astype("<u1").tobytes()
            out += self.dec_base.astype("<u4").tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, offset: int = 0) -> tuple["TansTable", int]:
        """Rebuild a table from its dump (frequencies are recovered by
        counting spread occupancy).

        :raises ContainerError: a header the dump format cannot hold
            (more than 16 table bits or ``2**16`` symbols), or a dump
            cut short.
        """
        table_bits, pos = decode_uvarint(blob, offset)
        alphabet, pos = decode_uvarint(blob, pos)
        if table_bits > 16 or alphabet > 1 << 16:
            raise ContainerError(
                f"implausible tANS table: {table_bits} table bits, "
                f"{alphabet} symbols"
            )
        T = 1 << table_bits
        packed = alphabet <= 256 and table_bits <= 15
        sym_bytes = 1 if alphabet <= 256 else 2
        size = 4 * T if packed else (sym_bytes + 1 + 4) * T
        if pos + size > len(blob):
            raise ContainerError("truncated tANS table dump")
        if packed:
            entries = np.frombuffer(blob, dtype="<u4", count=T, offset=pos)
            dec_sym = (entries & 0xFF).astype(np.int64)
        else:
            dec_sym = np.frombuffer(
                blob, dtype=f"<u{sym_bytes}", count=T, offset=pos
            ).astype(np.int64)
        freqs = np.bincount(dec_sym, minlength=alphabet)
        return cls(freqs.astype(np.int64), table_bits), pos + size
