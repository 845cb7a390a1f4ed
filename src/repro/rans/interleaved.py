"""32-way interleaved rANS (paper §2.2, Figure 1).

Symbols are assigned to lanes round-robin: 1-based symbol index ``i``
belongs to lane ``(i - 1) % K``.  Encoding walks the symbol sequence
forward; each symbol's owning lane renormalizes (emitting one 16-bit
word into the shared stream, in symbol order — equivalently, in
increasing lane order within a group) and then applies Eq. 1.  Decoding
walks backward, mirroring exactly: decode Eq. 2, then renormalize by
reading words in reverse emission order.

Because ``b >= n`` (Table 3), renormalization always completes in a
single step, so **every emitted word corresponds to exactly one
renormalization event** — the paper's "renormalization points are where
bitstreams are written".  When ``record_events`` is set, the encoder
captures per-word metadata (symbol index, lane, bounded post-renorm
state), the raw material for Recoil splits.

The hot loops are vectorized over the ``K`` lanes with numpy — the
moral equivalent of the paper's AVX implementations, where each lane
maps to a SIMD element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodeError, EncodeError
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.constants import (
    DEFAULT_LANES,
    L_BOUND,
    RENORM_BITS,
    RENORM_MASK,
)
from repro.rans.model import SymbolModel


@dataclass
class RenormEvents:
    """Struct-of-arrays renormalization log, one entry per word.

    Entry ``k`` describes the event that emitted stream word ``k``:

    - ``symbol_index[k]`` — 1-based index of the symbol *about to be
      encoded* when the renormalization fired (the event "belongs to"
      that symbol per Eq. 3's forward-looking formulation).
    - ``lane[k]`` — the lane that renormalized.
    - ``state_after[k]`` — the post-renormalization state, ``< L``
      (Lemma 3.1), hence stored in 16 bits.

    The word position is implicit (``k`` itself) because ``b >= n``
    makes renormalization single-step.
    """

    symbol_index: np.ndarray  # uint64
    lane: np.ndarray  # uint16
    state_after: np.ndarray  # uint16

    def __len__(self) -> int:
        return len(self.symbol_index)

    def __getitem__(self, k: int) -> tuple[int, int, int]:
        return (
            int(self.symbol_index[k]),
            int(self.lane[k]),
            int(self.state_after[k]),
        )


@dataclass
class InterleavedEncodeResult:
    """Everything the encoder produces for one input sequence."""

    words: np.ndarray  # uint16 stream, emission order
    final_states: np.ndarray  # uint64, shape (lanes,)
    num_symbols: int
    lanes: int
    events: RenormEvents | None = None

    @property
    def num_words(self) -> int:
        return len(self.words)

    @property
    def payload_bytes(self) -> int:
        """Size of the word stream in bytes."""
        return 2 * len(self.words)


class InterleavedEncoder:
    """K-way interleaved rANS encoder over an adaptive model provider.

    Stateless between calls: an instance may be shared between
    threads (the kernel's scratch is per thread, DESIGN.md §9).
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        if lanes < 1:
            raise EncodeError(f"need at least one lane, got {lanes}")
        self.provider = provider
        self.lanes = lanes

    def encode(
        self,
        data: np.ndarray,
        record_events: bool = False,
    ) -> InterleavedEncodeResult:
        """Encode ``data`` (1-D integer array) into a single stream.

        Routes through the fused wide-lane encode kernel
        (:mod:`repro.parallel.fused_encode`): per-block operand
        gathers from provider-cached
        :class:`~repro.rans.adaptive.EncodeTables`, a straight-line
        sequential sweep over interleave groups (compiled on a host
        with a C compiler), and bulk in-kernel
        word emission + split-event recording reconstructed from the
        staged state trajectory.  :meth:`encode_reference` is the
        original per-group masked loop, kept bit-identical for
        differential testing.
        """
        from repro.parallel.fused_encode import EncodeTask, fused_encode_run

        data = np.ascontiguousarray(data)
        if data.ndim != 1:
            raise EncodeError(f"data must be 1-D, got shape {data.shape}")
        task = EncodeTask(data, start_index=1, record_events=record_events)
        out = fused_encode_run(self.provider, self.lanes, [task])[0]
        return InterleavedEncodeResult(
            words=out.words,
            final_states=out.final_states,
            num_symbols=len(data),
            lanes=self.lanes,
            events=out.events,
        )

    def encode_reference(
        self, data: np.ndarray, record_events: bool = False
    ) -> InterleavedEncodeResult:
        """The original per-group masked loop (differential reference).

        Bit-identical to :meth:`encode` — same words, final states and
        renormalization events; kept unoptimized on purpose.
        """
        data = np.ascontiguousarray(data)
        if data.ndim != 1:
            raise EncodeError(f"data must be 1-D, got shape {data.shape}")
        K = self.lanes
        N = len(data)
        n = self.provider.quant_bits
        shift = np.uint64(RENORM_BITS + 16 - n)  # bound = f << (32 - n)
        rb = np.uint64(RENORM_BITS)
        n64 = np.uint64(n)
        mask16 = np.uint64(RENORM_MASK)

        if N == 0:
            return InterleavedEncodeResult(
                words=np.empty(0, dtype=np.uint16),
                final_states=np.full(K, L_BOUND, dtype=np.uint64),
                num_symbols=0,
                lanes=K,
                events=RenormEvents(
                    np.empty(0, np.uint64),
                    np.empty(0, np.uint16),
                    np.empty(0, np.uint16),
                )
                if record_events
                else None,
            )

        f_all, cdf_all = self.provider.gather_freq_cdf(data, start_index=1)

        # Renormalization thresholds (Eq. 3) for the whole sequence,
        # hoisted out of the group loop.
        bound_all = f_all << shift
        need_buf = np.empty(K, dtype=bool)
        q_buf = np.empty(K, dtype=np.uint64)
        rem_buf = np.empty(K, dtype=np.uint64)

        x = np.full(K, L_BOUND, dtype=np.uint64)
        words = np.empty(N + 8, dtype=np.uint16)  # <= 1 word per symbol
        if record_events:
            ev_sym = np.empty(N + 8, dtype=np.uint64)
            ev_lane = np.empty(N + 8, dtype=np.uint16)
            ev_state = np.empty(N + 8, dtype=np.uint16)
        wc = 0

        num_groups = -(-N // K)
        for g in range(num_groups):
            base = g * K
            cnt = min(K, N - base)
            f = f_all[base : base + cnt]
            cdf = cdf_all[base : base + cnt]
            xs = x[:cnt]
            # Renormalize lanes whose state would overflow (Eq. 3).
            need = need_buf[:cnt]
            np.greater_equal(xs, bound_all[base : base + cnt], out=need)
            c = int(np.count_nonzero(need))
            if c:
                overflowed = xs[need]
                words[wc : wc + c] = overflowed & mask16
                renormed = overflowed >> rb
                xs[need] = renormed
                if record_events:
                    idx = np.flatnonzero(need)
                    ev_sym[wc : wc + c] = base + idx + 1
                    ev_lane[wc : wc + c] = idx
                    ev_state[wc : wc + c] = renormed
                wc += c
            # Eq. 1 vectorized across the group's lanes, in place.
            q = q_buf[:cnt]
            rem = rem_buf[:cnt]
            np.floor_divide(xs, f, out=q)
            np.multiply(q, f, out=rem)
            np.subtract(xs, rem, out=rem)
            np.left_shift(q, n64, out=q)
            np.add(q, cdf, out=q)
            np.add(q, rem, out=xs)

        events = None
        if record_events:
            events = RenormEvents(
                symbol_index=ev_sym[:wc].copy(),
                lane=ev_lane[:wc].copy(),
                state_after=ev_state[:wc].copy(),
            )
        return InterleavedEncodeResult(
            words=words[:wc].copy(),
            final_states=x,
            num_symbols=N,
            lanes=K,
            events=events,
        )


class InterleavedDecoder:
    """K-way interleaved rANS decoder (full-stream, vectorized).

    Stateless between calls: an instance may be shared between
    threads (the kernel's scratch is per thread, DESIGN.md §9).
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.lanes = lanes

    def decode(
        self,
        words: np.ndarray,
        final_states: np.ndarray,
        num_symbols: int,
        check_terminal: bool = True,
    ) -> np.ndarray:
        """Decode the full stream back to the original symbol order.

        Routes through the fused wide-lane kernel
        (:mod:`repro.parallel.fused`) as a single fully-initialized
        task: walks symbol indices ``N .. 1``; per symbol, Eq. 4
        renormalization reads then the Eq. 2 decode, reads within a
        group in decreasing lane order, exactly mirroring encode-side
        emission.  :meth:`decode_reference` is the pure-Python
        differential reference.
        """
        from repro.parallel.fused import TaskColumns, fused_run

        K = self.lanes
        N = int(num_symbols)
        lbound = np.uint64(L_BOUND)

        if len(final_states) != K:
            raise DecodeError(
                f"expected {K} final states, got {len(final_states)}"
            )
        x = np.ascontiguousarray(final_states, dtype=np.uint64)
        words = np.asarray(words, dtype=np.uint16)
        out = np.empty(N, dtype=self.provider.out_dtype)
        if N == 0:
            if check_terminal and (len(words) != 0 or np.any(x != lbound)):
                raise DecodeError("terminal check failed on empty stream")
            return out

        columns = TaskColumns.build(
            K,
            start_pos=len(words) - 1,
            walk_hi=N,
            walk_lo=1,
            commit_hi=N,
            commit_lo=1,
            check_terminal=check_terminal,
            init_task=[0],
            init_states=x[None],
        )
        fused_run(self.provider, K, words, columns, out)
        return out

    # ------------------------------------------------------------------
    # Reference (pure-Python) decoder — the paper's "variation (1)":
    # non-optimized, for debugging and differential testing.
    # ------------------------------------------------------------------

    def decode_reference(
        self,
        words: np.ndarray,
        final_states: np.ndarray,
        num_symbols: int,
        check_terminal: bool = True,
    ) -> np.ndarray:
        """Scalar-loop decoder, bit-identical to :meth:`decode`."""
        provider = self.provider
        K = self.lanes
        N = int(num_symbols)
        n = provider.quant_bits
        slot_mask = (1 << n) - 1

        states = [int(v) for v in final_states]
        if len(states) != K:
            raise DecodeError(
                f"expected {K} final states, got {len(states)}"
            )
        p = len(words) - 1
        out = np.empty(N, dtype=self.provider.out_dtype)
        for i in range(N, 0, -1):
            lane = (i - 1) % K
            model = provider.model_for_index(i)
            xv = states[lane]
            slot = xv & slot_mask
            s = int(model.slot_to_symbol[slot])
            xv = int(model.freqs[s]) * (xv >> n) + slot - int(model.cdf[s])
            while xv < L_BOUND:
                if p < 0:
                    raise DecodeError(
                        "bitstream exhausted during renormalization"
                    )
                xv = (xv << RENORM_BITS) | int(words[p])
                p -= 1
            states[lane] = xv
            out[i - 1] = s
        if check_terminal:
            if p != -1 or any(v != L_BOUND for v in states):
                raise DecodeError("terminal check failed")
        return out
