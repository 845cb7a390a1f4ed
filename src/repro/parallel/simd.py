"""Batched lane engine: many decoder threads as numpy arrays.

This module is the reproduction's substitute for the paper's SIMD and
CUDA decoders (DESIGN.md substitution table).  A *task* is one
logical decoder thread: a group of ``K`` interleaved rANS lanes walking
a symbol-index range backwards over a shared word stream; a batch of
tasks is one :class:`~repro.parallel.fused.TaskColumns` plan, one row
per task (DESIGN.md §7).  The engine
advances **all tasks simultaneously**, one interleave group per
iteration, with every per-lane operation expressed as dense
``(tasks, lanes)`` array arithmetic — exactly the data layout a GPU
implementation uses (one warp per task, one CUDA lane per rANS lane).

Walk semantics (DESIGN.md §7): per symbol index ``i`` (descending),
lane ``j = (i-1) % K`` first performs its renormalization read (Eq. 4
fires iff the lane's state is below ``L``), then decodes symbol ``i``
(Eq. 2).  A lane *activates* when the walk reaches its metadata index:
its recorded state is installed, the pending read executes, and the
lane decodes that very symbol — the Synchronization Phase of §4.1.1
falls out of the masking for free, as do the Decoding and
Cross-Boundary phases (they differ only in whether the output is
committed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DecodeError
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS

if TYPE_CHECKING:
    from repro.parallel.fused import TaskColumns


@dataclass
class EngineStats:
    """Work counters from one engine run (feeds the cost model)."""

    iterations: int = 0
    symbols_decoded: int = 0  # includes discarded sync-section symbols
    words_read: int = 0
    tasks: int = 0
    max_task_iterations: int = 0

    @property
    def lane_utilization(self) -> float:
        """Decoded symbols per (iteration x task x lane) slot."""
        denom = self.iterations * max(self.tasks, 1)
        return self.symbols_decoded / denom if denom else 0.0


class LaneEngine:
    """Vectorized executor for a :class:`~repro.parallel.fused.TaskColumns`
    plan.

    :meth:`run` routes through the fused wide-lane kernel
    (:mod:`repro.parallel.fused`) — the compiled walk on a host with a
    C compiler, else one flat numpy state vector across all tasks,
    scratch buffers reused across calls.  :meth:`run_reference`
    is the original masked per-group loop, kept as the differential-
    testing reference (both are validated against each other and the
    pure-Python decoders in the test suite).

    An engine owns its scratch arena and is therefore **not**
    thread-safe; use one engine per worker thread (as
    :func:`~repro.parallel.executor.decode_with_pool` does).
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider,
        lanes: int,
    ) -> None:
        self.provider = provider
        self.lanes = lanes
        self._arena = None  # created lazily; see `arena`

    @property
    def arena(self):
        if self._arena is None:
            from repro.parallel.buffers import ScratchArena

            self._arena = ScratchArena()
        return self._arena

    # ------------------------------------------------------------------

    def run(
        self,
        words: np.ndarray,
        columns: TaskColumns,
        out: np.ndarray,
    ) -> EngineStats:
        """Decode every task, writing committed symbols into ``out``.

        ``out`` must be preallocated with the full sequence length;
        each output position is written by exactly one task (the
        commit ranges partition the sequence).
        """
        from repro.parallel.fused import fused_run

        return fused_run(
            self.provider, self.lanes, words, columns, out, self.arena
        )

    # ------------------------------------------------------------------

    def run_reference(
        self,
        words: np.ndarray,
        columns: TaskColumns,
        out: np.ndarray,
    ) -> EngineStats:
        """The original masked per-group loop (differential reference).

        Semantically identical to :meth:`run`, including the
        :class:`EngineStats` counters; kept unoptimized on purpose.
        """
        provider = self.provider
        K = self.lanes
        T = columns.num_tasks
        stats = EngineStats(tasks=T)
        if T == 0:
            return stats

        n = provider.quant_bits
        n64 = np.uint64(n)
        rb = np.uint64(RENORM_BITS)
        slot_mask = np.uint64((1 << n) - 1)
        lbound = np.uint64(L_BOUND)
        words = np.asarray(words, dtype=np.uint16)

        static = provider.is_static
        if static:
            lut1 = provider.models[0].slot_to_symbol
            freq1 = provider.models[0].freqs.astype(np.uint64)
            cdf1 = provider.models[0].cdf[:-1].astype(np.uint64)
        else:
            lut_t = provider.lut_table
            freq_t = provider.freq_table.astype(np.uint64)
            cdf_t = provider.cdf_table[:, :-1].astype(np.uint64)
            ids_arr = self._dense_ids(len(out))

        # ---- task state arrays ---------------------------------------
        from repro.parallel.fused import _check_starts

        geom = columns.geom
        _check_starts(geom, len(words))
        pos = geom[:, 0].copy()
        cur = geom[:, 1].copy()
        lo, c_hi, c_lo, offs = geom[:, 2], geom[:, 3], geom[:, 4], geom[:, 5]

        x = columns.init.copy()
        active = np.repeat(columns.has_init[:, None] != 0, K, axis=1)

        # ---- activation schedule -------------------------------------
        # Activations install at their ``act_iter``: each iteration
        # advances every live task exactly one interleave group.
        order = np.argsort(columns.act_iter, kind="stable")
        a_iter = columns.act_iter[order]
        a_task = np.repeat(np.arange(T), np.diff(columns.act_ptr))[order]
        a_lane = columns.act_lane[order]
        a_state = columns.act_state[order]
        a_ptr = 0

        lane_col = np.arange(K, dtype=np.int64)[None, :]
        out_dtype = out.dtype
        r = 0
        per_task_iters = np.zeros(T, dtype=np.int64)

        # ---- main loop ------------------------------------------------
        while True:
            alive = cur >= lo
            if not alive.any():
                break
            # Install activations scheduled for this iteration.
            while a_ptr < len(a_iter) and a_iter[a_ptr] <= r:
                end = a_ptr
                while end < len(a_iter) and a_iter[end] <= r:
                    end += 1
                x[a_task[a_ptr:end], a_lane[a_ptr:end]] = a_state[a_ptr:end]
                active[a_task[a_ptr:end], a_lane[a_ptr:end]] = True
                a_ptr = end

            base = ((cur - 1) // K) * K
            sl = np.maximum(lo, base + 1)
            la = (sl - base - 1)[:, None]
            lb = (cur - base - 1)[:, None]
            part = (
                (lane_col >= la)
                & (lane_col <= lb)
                & alive[:, None]
                & active
            )

            # Renormalization reads (Eq. 4), before decoding: a lane
            # reads iff its pre-decode state underflows L.  Reads occur
            # in descending lane order within each task.
            need = part & (x < lbound)
            counts = need.sum(axis=1)
            if counts.any():
                rank = need[:, ::-1].cumsum(axis=1)[:, ::-1] - need
                rpos = pos[:, None] - rank
                src = rpos[need]
                if src.min() < 0 or src.max() >= len(words):
                    raise DecodeError(
                        "stream read out of range during renormalization "
                        "(corrupt metadata or truncated payload)"
                    )
                w = words[src].astype(np.uint64)
                x[need] = (x[need] << rb) | w
                pos -= counts
                stats.words_read += int(counts.sum())

            # Decode (Eq. 2) across all participating lanes at once.
            slot = x & slot_mask
            if static:
                sym = lut1[slot]
                f = freq1[sym]
                start = cdf1[sym]
            else:
                g_idx = offs[:, None] + base[:, None] + lane_col  # 0-based
                g_idx = np.clip(g_idx, 0, len(ids_arr) - 1)
                ids = ids_arr[g_idx]
                sym = lut_t[ids, slot]
                f = freq_t[ids, sym]
                start = cdf_t[ids, sym]
            new_x = f * (x >> n64) + (slot - start)
            x = np.where(part, new_x, x)

            local_index = base[:, None] + lane_col + 1
            commit = (
                part
                & (local_index >= c_lo[:, None])
                & (local_index <= c_hi[:, None])
            )
            if commit.any():
                out_pos = offs[:, None] + local_index - 1
                out[out_pos[commit]] = sym[commit].astype(
                    out_dtype, copy=False
                )

            stats.symbols_decoded += int(part.sum())
            per_task_iters[alive] += 1
            cur = np.where(alive, sl - 1, cur)
            r += 1

        stats.iterations = r
        stats.max_task_iterations = int(per_task_iters.max()) if T else 0

        # ---- terminal drain & checks ----------------------------------
        for ti in np.flatnonzero(geom[:, 6]).tolist():
            terminal_pos = int(geom[ti, 7])
            p = int(pos[ti])
            for lane in range(K - 1, -1, -1):
                xv = int(x[ti, lane])
                while xv < L_BOUND:
                    if p <= terminal_pos:
                        raise DecodeError(
                            f"task {ti}: stream exhausted in terminal drain"
                        )
                    xv = (xv << RENORM_BITS) | int(words[p])
                    p -= 1
                    stats.words_read += 1
                x[ti, lane] = xv
            if p != terminal_pos:
                raise DecodeError(
                    f"task {ti}: stream region not fully consumed "
                    f"(pos {p}, expected {terminal_pos})"
                )
            if np.any(x[ti] != L_BOUND):
                raise DecodeError(
                    f"task {ti}: lanes did not return to the initial "
                    f"state L"
                )
        return stats

    # ------------------------------------------------------------------

    def _dense_ids(self, total_symbols: int) -> np.ndarray:
        """Per-global-index model ids for adaptive providers."""
        ids = self.provider.model_ids_for_range(1, total_symbols + 1)
        return np.ascontiguousarray(ids, dtype=np.intp)
