"""Fused wide-lane rANS encode kernel.

The encode-side sibling of :mod:`repro.parallel.fused` (DESIGN.md §10).
The reference loop (:meth:`~repro.rans.interleaved.InterleavedEncoder.
encode_reference`) advances one interleave group per iteration with
per-group participation masks, boolean fancy indexing, and Python-level
event bookkeeping — at 32 lanes the numpy *dispatch* dominates the
arithmetic.  This kernel keeps the exact same stream semantics (forward
symbol walk, one word per renormalization, increasing-lane emission
order inside a group) while restructuring the work:

1. **Symbol-indexed gather tables** — every per-group operand
   (``f``, ``2**n - f``, ``F``, the Eq. 3 threshold) is one gather from
   provider-cached :class:`~repro.rans.adaptive.EncodeTables`, done for
   a whole block of groups at once, outside the sequential loop.
2. **Trajectory staging** — the sequential loop only advances the lane
   states, writing each group's *pre-renormalization* state vector into
   a block-sized trajectory buffer: 7 in-place vectorized ops per
   group, no masks, no data-dependent branches, no allocation.
3. **In-kernel event recording** — words and split events are
   reconstructed from the staged trajectory *after* the block's
   sequential sweep, as bulk vectorized writes (a renormalizing lane's
   word is the pre-state's low 16 bits, its recorded state the high
   bits), so recording costs the same whether or not it is enabled.
4. **Multi-task fusion** — independent encodes (e.g. Conventional
   partitions) advance as one flat ``(T*K,)`` state vector; the
   per-group dispatch cost is amortized ``T``-fold exactly as the
   decode kernel amortizes it across decoder threads.

rANS is a stack: within the single stream each group's state depends on
the previous group, so one task's walk is irreducibly sequential and
only widens across *independent* tasks — the paper's "Recoil encoding
cannot be done in parallel" (§6) shows up here as the fixed
``K``-wide vector of the single-stream case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EncodeError, ModelError
from repro.parallel import compiled
from repro.parallel.buffers import thread_arena
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS, RENORM_MASK

#: Steady-phase staging target, in symbols per block.  Blocks bound the
#: trajectory/operand scratch to a few MB regardless of task count and
#: keep the working set cache-resident.  Each block buffer is one flat
#: scratch of this many elements (``2 * W`` for a fused width ``W``
#: above half of it), viewed as ``(rows, W)``: one set serves every
#: width.
_BLOCK_SYMBOLS = 1 << 16


@dataclass
class EncodeTask:
    """One independent K-lane interleaved encode.

    ``start_index`` is the 1-based index of ``data[0]`` in the
    provider's global symbol-index space: 1 for a standalone stream,
    ``partition_start + 1`` for a Conventional partition.  Adaptive
    providers resolve per-symbol models through it directly — no
    per-partition provider slicing.

    Event indices in the result are local to the task (1-based, like
    the reference encoder's).
    """

    data: np.ndarray
    start_index: int = 1
    record_events: bool = False


@dataclass
class EncodeTaskOut:
    """Kernel output for one task (fresh arrays, never arena scratch)."""

    words: np.ndarray  # uint16, emission order
    final_states: np.ndarray  # (K,) uint64
    event_symbol: np.ndarray | None = None  # uint64, 1-based local
    event_lane: np.ndarray | None = None  # uint16
    event_state: np.ndarray | None = None  # uint16


def _zero_freq_error(
    task: EncodeTask, local_pos: int, symbol: int
) -> ModelError:
    """Match the reference path's gather_freq_cdf diagnostics."""
    return ModelError(
        f"symbol {symbol} at index {task.start_index + local_pos} "
        "has zero quantized frequency"
    )


def fused_encode_run(
    provider: AdaptiveModelProvider,
    lanes: int,
    tasks: list[EncodeTask],
) -> list[EncodeTaskOut]:
    """Encode every task, bit-identical to the reference loop.

    Tasks are independent; their lane states advance together through
    the fused steady phase (full interleave groups present in every
    task), then each task finishes its remaining groups alone.
    Scratch comes from the calling thread's arena (DESIGN.md §9).

    On a host with a C compiler the sequential trajectory sweep — the
    only data-dependent chain — runs on the compiled twin
    (:mod:`repro.parallel.compiled`); gathers, word emission and event
    reconstruction stay vectorized numpy either way.  Bit-identical.
    """
    K = lanes
    T = len(tasks)
    if T == 0:
        return []

    n = provider.quant_bits
    rb = np.uint64(RENORM_BITS)
    mask16 = np.uint64(RENORM_MASK)
    tables = provider.encode_tables
    A = tables.alphabet
    static = provider.is_static
    if static:
        f_tab = tables.freq_sym[0]
        c_tab = tables.comp_sym[0]
        d_tab = tables.cdf_sym[0]
        b_tab = tables.bound_sym[0]
        ids_full = None
    else:
        f_tab = tables.freq_sym.ravel()
        c_tab = tables.comp_sym.ravel()
        d_tab = tables.cdf_sym.ravel()
        b_tab = tables.bound_sym.ravel()

    datas: list[np.ndarray] = []
    for ti, t in enumerate(tasks):
        d = np.ascontiguousarray(t.data)
        if d.ndim != 1:
            raise EncodeError(
                f"task {ti}: data must be 1-D, got shape {d.shape}"
            )
        if t.start_index < 1:
            raise EncodeError(
                f"task {ti}: start_index must be >= 1, got {t.start_index}"
            )
        datas.append(d)
    sizes = [len(d) for d in datas]

    if not static:
        total = max(
            t.start_index - 1 + sz for t, sz in zip(tasks, sizes)
        )
        ids_dense = provider.dense_model_ids(total)
        ids_views = [
            ids_dense[t.start_index - 1 : t.start_index - 1 + sz]
            for t, sz in zip(tasks, sizes)
        ]

    # ---- per-task output buffers (<= 1 word per symbol) -----------------
    words_bufs = [np.empty(sz + 8, dtype=np.uint16) for sz in sizes]
    wcs = [0] * T
    ev_sym_bufs: list[np.ndarray | None] = []
    ev_lane_bufs: list[np.ndarray | None] = []
    ev_state_bufs: list[np.ndarray | None] = []
    for t, sz in zip(tasks, sizes):
        if t.record_events:
            ev_sym_bufs.append(np.empty(sz + 8, dtype=np.uint64))
            ev_lane_bufs.append(np.empty(sz + 8, dtype=np.uint16))
            ev_state_bufs.append(np.empty(sz + 8, dtype=np.uint16))
        else:
            ev_sym_bufs.append(None)
            ev_lane_bufs.append(None)
            ev_state_bufs.append(None)

    arena = thread_arena()
    x2d = arena.get("enc_x", (T, K), np.uint64)
    x2d[:] = L_BOUND

    two_n = np.uint64(1 << n)
    bshift = np.uint64(RENORM_BITS + 16 - n)  # Eq. 3: bound = f << (32 - n)

    # ------------------------------------------------------------------
    def run_blocks(sel: list[int], g_from: int, g_to: int) -> None:
        """Advance the selected tasks over full groups [g_from, g_to).

        Every selected task must own all those groups in full, and
        ``sel`` must be a contiguous run of task ids.  The selected
        rows of ``x2d`` advance in place; words and events are
        reconstructed from the staged trajectory per block.
        """
        Tb = len(sel)
        if Tb == 0 or g_to <= g_from:
            return
        W = Tb * K  # the fused vector width: every row below is (W,)
        xv = x2d[sel[0] : sel[0] + Tb].reshape(W)
        # The trajectory ``X`` takes ``block + 1`` rows of the scratch.
        flat = max(_BLOCK_SYMBOLS, 2 * W)
        block = flat // W - 1

        def staged(name: str, dtype, n: int = block) -> np.ndarray:
            buf = arena.get_at_least(name, flat, dtype)
            return buf[: n * W].reshape(n, W)

        symb_f = staged("enc_sym", np.intp)
        fb_f = staged("enc_f", np.uint64)
        cb_f = staged("enc_c", np.uint64)
        db_f = staged("enc_d", np.uint64)
        bb_f = staged("enc_b", np.uint64)
        X_f = staged("enc_X", np.uint64, block + 1)
        need_f = staged("enc_need", bool)
        xr = arena.get_at_least("enc_xr", W, np.uint64)[:W]
        q = arena.get_at_least("enc_q", W, np.uint64)[:W]
        tmp = arena.get_at_least("enc_tmp", W, np.uint64)[:W]

        less = np.less
        right_shift = np.right_shift
        copyto = np.copyto
        floor_divide = np.floor_divide
        multiply = np.multiply
        add = np.add

        g0 = g_from
        while g0 < g_to:
            bg = min(block, g_to - g0)
            lo, hi = g0 * K, (g0 + bg) * K
            fb = fb_f[:bg]
            cb = cb_f[:bg]
            db = db_f[:bg]
            bb = bb_f[:bg]
            if static and Tb == 1:
                # Single stream: gather straight off the data view.
                sym = datas[sel[0]][lo:hi].reshape(bg, K)
                f_tab.take(sym, None, fb)
                d_tab.take(sym, None, db)
            else:
                symb = symb_f[:bg]
                s3 = symb.reshape(bg, Tb, K)
                for j, ti in enumerate(sel):
                    s3[:, j, :] = datas[ti][lo:hi].reshape(bg, K)
                if not static:
                    for j, ti in enumerate(sel):
                        s3[:, j, :] += (
                            ids_views[ti][lo:hi]
                            .reshape(bg, K)
                            .astype(np.intp)
                            * A
                        )
                f_tab.take(symb, None, fb)
                d_tab.take(symb, None, db)
            if not int(fb.min()):
                g, w = np.argwhere(fb == 0)[0]
                ti = sel[int(w) // K]
                pos = (g0 + int(g)) * K + int(w) % K
                raise _zero_freq_error(
                    tasks[ti], pos, int(datas[ti][pos])
                )
            # comp and bound are one elementwise op each — cheaper
            # than two more table gathers.
            np.subtract(two_n, fb, cb)
            np.left_shift(fb, bshift, bb)

            # ---- the sequential sweep: 7 in-place ops per group ----
            # ``need`` rows collect the *keep* mask (state below the
            # Eq. 3 threshold); inverted in bulk afterwards.
            X = X_f[: bg + 1]
            X[0] = xv
            # The zero-frequency check above is the only guard in
            # front of the C sweep's division by ``f``.
            if not compiled.encode_sweep(
                X, bb, fb, cb, db, need_f[:bg], RENORM_BITS
            ):
                xprev = X[0]
                for b_row, f_row, c_row, d_row, n_row, xnext in zip(
                    bb, fb, cb, db, need_f, X[1:]
                ):
                    less(xprev, b_row, n_row)
                    right_shift(xprev, rb, xr)
                    copyto(xr, xprev, where=n_row)
                    floor_divide(xr, f_row, q)
                    multiply(q, c_row, tmp)
                    add(tmp, d_row, tmp)
                    add(xr, tmp, xnext)
                    xprev = xnext
            xv[:] = X[bg]

            # ---- bulk word emission + event recording --------------
            need = need_f[:bg]
            np.logical_not(need, need)
            n3 = need.reshape(bg, Tb, K)
            for j, ti in enumerate(sel):
                rows, cols = np.nonzero(n3[:, j, :])
                e = len(rows)
                if not e:
                    continue
                pre = X[rows, j * K + cols]
                wc = wcs[ti]
                words_bufs[ti][wc : wc + e] = pre & mask16
                if tasks[ti].record_events:
                    ev_sym_bufs[ti][wc : wc + e] = (
                        (rows + g0) * K + cols + 1
                    )
                    ev_lane_bufs[ti][wc : wc + e] = cols
                    ev_state_bufs[ti][wc : wc + e] = pre >> rb
                wcs[ti] = wc + e
            g0 += bg

    # ------------------------------------------------------------------
    def run_partial(ti: int, g: int, cnt: int) -> None:
        """The task's final partial group: lanes 0..cnt-1 only."""
        base = g * K
        sym = datas[ti][base : base + cnt]
        if static:
            idx = np.asarray(sym, dtype=np.intp)
        else:
            idx = (
                np.asarray(ids_views[ti][base : base + cnt], dtype=np.intp)
                * A
                + sym
            )
        f1 = f_tab[idx]
        if not int(f1.min()):
            k = int(np.flatnonzero(f1 == 0)[0])
            raise _zero_freq_error(tasks[ti], base + k, int(sym[k]))
        xs = x2d[ti, :cnt]
        pre = xs.copy()
        ren = pre >= b_tab[idx]
        lanes_idx = np.flatnonzero(ren)
        e = len(lanes_idx)
        if e:
            emitted = pre[lanes_idx]
            wc = wcs[ti]
            words_bufs[ti][wc : wc + e] = emitted & mask16
            if tasks[ti].record_events:
                ev_sym_bufs[ti][wc : wc + e] = base + lanes_idx + 1
                ev_lane_bufs[ti][wc : wc + e] = lanes_idx
                ev_state_bufs[ti][wc : wc + e] = emitted >> rb
            wcs[ti] = wc + e
            pre[lanes_idx] = emitted >> rb
        quot = pre // f1
        xs[:] = pre + quot * c_tab[idx] + d_tab[idx]

    # ---- steady fused phase, then per-task remainders -------------------
    g_min = min(sz // K for sz in sizes)
    run_blocks(list(range(T)), 0, g_min)
    for ti, sz in enumerate(sizes):
        g_full = sz // K
        run_blocks([ti], g_min, g_full)
        cnt = sz - g_full * K
        if cnt:
            run_partial(ti, g_full, cnt)

    # ---- compact results (fresh arrays; scratch never escapes) ----------
    results: list[EncodeTaskOut] = []
    for ti, t in enumerate(tasks):
        wc = wcs[ti]
        out = EncodeTaskOut(
            words=words_bufs[ti][:wc].copy(),
            final_states=x2d[ti].copy(),
        )
        if t.record_events:
            out.event_symbol = ev_sym_bufs[ti][:wc].copy()
            out.event_lane = ev_lane_bufs[ti][:wc].copy()
            out.event_state = ev_state_bufs[ti][:wc].copy()
        results.append(out)
    return results
