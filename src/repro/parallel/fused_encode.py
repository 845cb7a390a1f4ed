"""Fused wide-lane rANS encode kernel.

The encode-side sibling of :mod:`repro.parallel.fused` (DESIGN.md §10).
On a host with a C compiler one C call encodes every task
(:func:`repro.parallel.compiled.rans_encode`): it walks each task's
symbols in order, gathering ``f`` and ``F`` per symbol straight from
the encode tables, and writes the words and split events of all tasks
into fresh flat buffers.  It stages nothing.  Everything below
describes the numpy kernel, the portable path of a host without one.

The reference loop (:meth:`~repro.rans.interleaved.InterleavedEncoder.
encode_reference`) advances one interleave group per iteration with
per-group participation masks, boolean fancy indexing, and Python-level
event bookkeeping — at 32 lanes the numpy *dispatch* dominates the
arithmetic.  This kernel keeps the exact same stream semantics (forward
symbol walk, one word per renormalization, increasing-lane emission
order inside a group) while restructuring the work:

1. **Symbol-indexed gather tables** — ``f`` and ``F`` are one gather
   each from provider-cached :class:`~repro.rans.adaptive.EncodeTables`,
   done for a whole block of groups at once, outside the sequential
   loop; ``2**n - f`` and the Eq. 3 threshold are one elementwise op
   each on the gathered ``f``.
2. **One schedule** — every task runs to the longest task's number of
   interleave groups.  Lanes past a task's last symbol encode the
   tables' *identity symbol* (``f = 2**n``, ``F = 0``), which never
   renormalizes and leaves the state unchanged, so there are no
   partial groups and no per-task tails: one blocked sweep covers
   every group of every task.
3. **Trajectory staging** — the sequential loop only advances the lane
   states, writing each group's *pre-renormalization* state vector into
   a block-sized trajectory buffer: 7 in-place vectorized ops per
   group, no masks, no data-dependent branches, no allocation.
4. **In-kernel event recording** — words and split events are
   reconstructed from the staged trajectory *after* the block's
   sequential sweep, as bulk vectorized writes (a renormalizing lane's
   word is the pre-state's low 16 bits, its recorded state the high
   bits), so recording costs the same whether or not it is enabled.
5. **Multi-task fusion** — independent encodes (e.g. Conventional
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
from repro.rans.interleaved import RenormEvents

#: Staging target, in symbols per block.  Blocks bound the
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
    """Kernel output for one task: fresh arrays, or views of one
    call's fresh buffers, never arena scratch."""

    words: np.ndarray  # uint16, emission order
    final_states: np.ndarray  # (K,) uint64
    events: RenormEvents | None = None  # symbol indices 1-based, local


def _zero_freq_error(
    task: EncodeTask, local_pos: int, symbol: int
) -> ModelError:
    """Match the reference path's gather_freq_cdf diagnostics."""
    return ModelError(
        f"symbol {symbol} at index {task.start_index + local_pos} "
        "has zero quantized frequency"
    )


def _first_zero_freq(
    tasks: list[EncodeTask],
    datas: list[np.ndarray],
    f_tab: np.ndarray,
    ids: np.ndarray | None,
    alphabet: int,
) -> ModelError:
    """The first zero-frequency symbol of the first task holding one:
    the order of the reference loop and of the C encode's check."""
    for t, d in zip(tasks, datas):
        gi = d.astype(np.intp)
        if ids is not None:
            i0 = t.start_index - 1
            gi += ids[i0 : i0 + len(d)].astype(np.intp) * (alphabet + 1)
        hit = np.flatnonzero(f_tab[gi] == 0)
        if len(hit):
            return _zero_freq_error(t, int(hit[0]), int(d[hit[0]]))
    raise AssertionError("no zero-frequency symbol")


def _checked_data(ti: int, task: EncodeTask, alphabet: int) -> np.ndarray:
    """Task ``ti``'s symbols as a contiguous, native-endian integer
    array, after refusing a non-1-D array, a ``start_index`` below 1
    and a symbol outside ``[0, alphabet)``."""
    d = np.ascontiguousarray(task.data)
    if d.ndim != 1:
        raise EncodeError(f"task {ti}: data must be 1-D, got shape {d.shape}")
    if task.start_index < 1:
        raise EncodeError(
            f"task {ti}: start_index must be >= 1, got {task.start_index}"
        )
    if not len(d):
        return np.empty(0, dtype=np.uint8)
    kind, bits = d.dtype.kind, 8 * d.dtype.itemsize
    # An unsigned dtype the alphabet covers (bytes under a 256-symbol
    # model) needs no scan.
    if not (kind == "u" and 1 << bits <= alphabet) and (
        kind not in "iu" or d.min() < 0 or d.max() >= alphabet
    ):
        raise _alphabet_error(task, d, alphabet)
    return d if d.dtype.isnative else d.astype(d.dtype.newbyteorder("="))


def _alphabet_error(
    task: EncodeTask, data: np.ndarray, alphabet: int
) -> EncodeError:
    """Name the first symbol outside ``[0, alphabet)``.  Such a symbol
    must never reach the gathers: ``take`` wraps a negative one, and
    ``alphabet`` itself selects the identity column, which would drop
    the symbol from the stream."""
    if data.dtype.kind not in "iu":
        return EncodeError(f"symbols must be integers, got {data.dtype}")
    k = int(np.flatnonzero((data < 0) | (data >= alphabet))[0])
    return EncodeError(
        f"symbol {int(data[k])} at index {task.start_index + k} is "
        f"outside the alphabet [0, {alphabet})"
    )


def fused_encode_run(
    provider: AdaptiveModelProvider,
    lanes: int,
    tasks: list[EncodeTask],
) -> list[EncodeTaskOut]:
    """Encode every task, bit-identical to the reference loop.

    On a host with a C compiler one C call encodes every task, one
    after another (:func:`repro.parallel.compiled.rans_encode`); each
    task's results are views of that call's fresh buffers.  Elsewhere
    the numpy kernel runs: the tasks' lane states advance together as
    one ``(T*K,)`` vector over the longest task's interleave groups,
    each shorter task padded with the identity symbol, in blocks
    staged in the calling thread's arena (DESIGN.md §9, §10).

    :raises EncodeError: a task's data is not 1-D, its ``start_index``
        is below 1, or it holds a symbol outside ``[0, alphabet)``.
    :raises ModelError: a symbol with zero quantized frequency: the
        first one of the first task holding one, on both kernels.
    """
    if not tasks:
        return []
    A = provider.encode_tables.alphabet
    datas = [_checked_data(ti, t, A) for ti, t in enumerate(tasks)]
    ids = None
    if not provider.is_static:
        ids = provider.dense_model_ids(
            max(t.start_index - 1 + len(d) for t, d in zip(tasks, datas))
        )
    if compiled.kernel_available():
        return _encode_compiled(provider, lanes, tasks, datas, ids)
    return _encode_numpy(provider, lanes, tasks, datas, ids)


def _encode_compiled(
    provider: AdaptiveModelProvider,
    K: int,
    tasks: list[EncodeTask],
    datas: list[np.ndarray],
    ids: np.ndarray | None,
) -> list[EncodeTaskOut]:
    """:func:`fused_encode_run` in one C call."""
    tables = provider.encode_tables
    err, (ti, pos), words, events, finals, counts = compiled.rans_encode(
        tables.freq_sym, tables.cdf_sym, ids, provider.quant_bits, K, datas,
        [t.start_index - 1 for t in tasks],
        [t.record_events for t in tasks],
    )
    if err:
        task, symbol = tasks[ti], int(datas[ti][pos])
        if err == compiled.ENC_FREQ:
            raise _zero_freq_error(task, pos, symbol)
        raise ModelError(
            f"symbol {symbol} at index {task.start_index + pos} lies "
            "outside the provider's encode tables"
        )
    sym, lane, state = events
    results: list[EncodeTaskOut] = []
    w0 = e0 = 0
    for t, w1, x in zip(tasks, np.cumsum(counts).tolist(), finals):
        ev = None
        if t.record_events:
            e1 = e0 + w1 - w0
            ev = RenormEvents(sym[e0:e1], lane[e0:e1], state[e0:e1])
            e0 = e1
        results.append(EncodeTaskOut(words[w0:w1], x, ev))
        w0 = w1
    return results


def _encode_numpy(
    provider: AdaptiveModelProvider,
    K: int,
    tasks: list[EncodeTask],
    datas: list[np.ndarray],
    ids_dense: np.ndarray | None,
) -> list[EncodeTaskOut]:
    """:func:`fused_encode_run` as the blocked numpy sweep."""
    T = len(tasks)
    n = provider.quant_bits
    rb = np.uint64(RENORM_BITS)
    mask16 = np.uint64(RENORM_MASK)
    tables = provider.encode_tables
    A = tables.alphabet  # also the identity symbol's column
    f_tab = tables.freq_sym.ravel()
    d_tab = tables.cdf_sym.ravel()
    sizes = [len(d) for d in datas]
    groups = max(-(-sz // K) for sz in sizes)  # every task runs these
    if ids_dense is not None:
        ids_views = [
            ids_dense[t.start_index - 1 : t.start_index - 1 + sz]
            for t, sz in zip(tasks, sizes)
        ]

    # ---- per-task output buffers (<= 1 word per symbol) -----------------
    words_bufs = [np.empty(sz + 8, dtype=np.uint16) for sz in sizes]
    ev_bufs = [
        RenormEvents(
            np.empty(sz + 8, dtype=np.uint64),
            np.empty(sz + 8, dtype=np.uint16),
            np.empty(sz + 8, dtype=np.uint16),
        )
        if t.record_events
        else None
        for t, sz in zip(tasks, sizes)
    ]
    wcs = [0] * T

    arena = thread_arena()
    x2d = arena.get("enc_x", (T, K), np.uint64)
    x2d[:] = L_BOUND
    W = T * K  # the fused vector width: every row below is (W,)
    xv = x2d.reshape(W)
    # The trajectory ``X`` takes ``block + 1`` rows of the scratch.
    flat = max(_BLOCK_SYMBOLS, 2 * W)
    block = flat // W - 1

    def staged(name: str, dtype, rows: int = block) -> np.ndarray:
        buf = arena.get_at_least(name, flat, dtype)
        return buf[: rows * W].reshape(rows, W)

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

    two_n = np.uint64(1 << n)
    bshift = np.uint64(RENORM_BITS + 16 - n)  # Eq. 3: bound = f << (32 - n)
    less = np.less
    right_shift = np.right_shift
    copyto = np.copyto
    floor_divide = np.floor_divide
    multiply = np.multiply
    add = np.add

    for g0 in range(0, groups, block):
        bg = min(block, groups - g0)
        lo, hi = g0 * K, (g0 + bg) * K
        symb = symb_f[:bg]
        fb = fb_f[:bg]
        cb = cb_f[:bg]
        db = db_f[:bg]
        bb = bb_f[:bg]

        # ---- stage each task's symbols as flat gather indices ----------
        s3 = symb.reshape(bg, T, K)
        for j, d in enumerate(datas):
            full, rem = divmod(min(max(sizes[j] - lo, 0), hi - lo), K)
            src = d[lo : lo + full * K + rem]
            if ids_dense is not None:  # model_id * (alphabet + 1) + symbol
                ids = ids_views[j][lo : lo + len(src)]
                src = ids.astype(np.intp) * (A + 1) + src
            s = s3[:, j, :]
            s[:full] = src[: full * K].reshape(full, K)
            if full < bg:  # the task ends here: pad with the identity
                s[full:] = A
                s[full, :rem] = src[full * K :]
        f_tab.take(symb, None, fb)
        d_tab.take(symb, None, db)
        if not int(fb.min()):
            raise _first_zero_freq(tasks, datas, f_tab, ids_dense, A)
        # comp and bound are one elementwise op each — cheaper
        # than two more table gathers.
        np.subtract(two_n, fb, cb)
        np.left_shift(fb, bshift, bb)

        # ---- the sequential sweep: 7 in-place ops per group ------------
        # ``need`` rows collect the *keep* mask (state below the
        # Eq. 3 threshold); inverted in bulk afterwards.
        X = X_f[: bg + 1]
        X[0] = xv
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

        # ---- bulk word emission + event recording ----------------------
        need = need_f[:bg]
        np.logical_not(need, need)
        n3 = need.reshape(bg, T, K)
        for j, (words, ev) in enumerate(zip(words_bufs, ev_bufs)):
            rows, cols = np.nonzero(n3[:, j, :])
            e = len(rows)
            if not e:
                continue
            pre = X[rows, j * K + cols]
            wc = wcs[j]
            words[wc : wc + e] = pre & mask16
            if ev is not None:
                ev.symbol_index[wc : wc + e] = (rows + g0) * K + cols + 1
                ev.lane[wc : wc + e] = cols
                ev.state_after[wc : wc + e] = pre >> rb
            wcs[j] = wc + e

    # ---- compact results (fresh arrays; scratch never escapes) ----------
    results: list[EncodeTaskOut] = []
    for ti, (words, ev) in enumerate(zip(words_bufs, ev_bufs)):
        wc = wcs[ti]
        if ev is not None:
            ev = RenormEvents(
                ev.symbol_index[:wc].copy(),
                ev.lane[:wc].copy(),
                ev.state_after[:wc].copy(),
            )
        results.append(
            EncodeTaskOut(words[:wc].copy(), x2d[ti].copy(), ev)
        )
    return results
