"""Fused wide-lane rANS decode kernel.

This is the hot path of the whole reproduction (DESIGN.md §8).  A
*task* is one logical decoder thread — ``K`` interleaved lanes walking
a symbol-index range backwards over a shared word stream — and a
batch of tasks is one :class:`TaskColumns` plan (DESIGN.md §7).  The
numpy kernel advances the tasks of a *lockstep group* at once, one
interleave group per iteration, as dense ``(tasks, lanes)`` array
arithmetic: the data layout of the paper's SIMD and CUDA decoders (one
warp per task, one CUDA lane per rANS lane).  Combining M partitions
widens the effective vector M-fold and the per-symbol interpreter
overhead drops accordingly — the paper's decoder-adaptive scalability
claim made real in Python.

A plan runs as one lockstep group when its walks differ by at most 2x
and it has at most :data:`LOCKSTEP_TASKS` tasks; otherwise
:func:`fused_run` splits it, by walk length, into groups that do
(:func:`_lockstep_groups`), so a short task neither collapses the
steady window of long ones nor stays in their state matrix, finished,
until they end.  Structure of one group's run:

1. **Head** (generic masked iterations): partial first groups, lane
   activations (the Synchronization Phase), commit-range boundaries.
2. **Steady state**: every task is alive, fully activated, walking
   full interleave groups that are entirely inside its commit range.
   No masks, no ``np.where``, no allocation — all operands live in
   the calling thread's :class:`~repro.parallel.buffers.ScratchArena`
   (:func:`~repro.parallel.buffers.thread_arena`) and every Eq. 2
   table access is a single gather into a pre-materialized
   slot-indexed uint64 table (:class:`~repro.rans.adaptive.DecodeTables`).
3. **Tail** (generic again): the final, possibly partial, group of
   each task plus the terminal drain.

Phase boundaries are computed analytically from the task geometry
before the loop starts, so the steady loop carries no per-iteration
phase checks.  :func:`reference_walk` runs the same walk with the
steady window empty — every iteration on the masked loop — and is the
differential reference the steady loop and the compiled walk are
tested against.

On a host with a C compiler one C call replaces all three phases and
walks every task end to end (:func:`repro.parallel.compiled.rans_walk`,
DESIGN.md §19): tasks share only the read-only word stream and
disjoint output ranges, so the compiled walk needs neither lockstep
masks nor the global steady window.  Both read the one decode plan,
:class:`TaskColumns`; the numpy path is what a host without a
compiler runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.buffers import ScratchArena, thread_arena
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS


@dataclass
class EngineStats:
    """Work counters from one decode run (feeds the cost model).

    Every live task advances one interleave group per iteration, so
    the longest task's iteration count is the run's:
    ``max_task_iterations == iterations`` on both kernels.
    """

    iterations: int = 0
    symbols_decoded: int = 0  # includes discarded sync-section symbols
    words_read: int = 0
    tasks: int = 0
    max_task_iterations: int = 0

    @property
    def lane_utilization(self) -> float:
        """Decoded symbols per (iteration x task) slot, at most ``K``."""
        denom = self.iterations * max(self.tasks, 1)
        return self.symbols_decoded / denom if denom else 0.0


#: most tasks one lockstep group holds: the widest ``(tasks, lanes)``
#: state matrix the numpy walk advances at once.  Wider is slower: a
#: container at 1024 or 2176 splits decodes faster as groups of 512
#: tasks than as one group (DESIGN.md §8).
LOCKSTEP_TASKS = 512


def _lockstep_groups(columns: "TaskColumns") -> list[np.ndarray] | None:
    """The numpy walk's lockstep groups, as rows of the plan in plan
    order, or ``None`` when the whole plan is one group.

    Tasks sorted by walk length, longest first, fill groups of at most
    :data:`LOCKSTEP_TASKS` tasks, each at least half as long as its
    group's longest (DESIGN.md §8): a capacity-1 decode fused with
    capacity-16 ones walks beside tasks of its own length, not 16
    times shorter.
    """
    lengths = columns.walk_lengths
    if len(lengths) <= LOCKSTEP_TASKS and 2 * lengths.min() >= lengths.max():
        return None
    order = np.argsort(-lengths, kind="stable")
    neg = -lengths[order]  # ascending
    groups = []
    start = 0
    while start < len(order):
        # Rows from ``start`` at least half the group's longest walk.
        end = int(np.searchsorted(neg, neg[start] // 2, side="right"))
        end = min(end, start + LOCKSTEP_TASKS)
        groups.append(np.sort(order[start:end]))
        start = end
    return groups


def _plan_phases(columns: "TaskColumns", lanes: int) -> tuple[int, int, int]:
    """Analytic iteration geometry for a task batch.

    Returns ``(R_total, H, S)``: the global loop length (the longest
    task's iteration count) and the global steady-state window
    ``[H, S)`` (empty when ``H >= S``).

    Task ``t`` is *steady* at iteration ``r`` (walking group
    ``g = g_hi - r``) when:

    - every lane is active: ``r >= act_end`` (all activations
      installed; tasks whose lanes can never all activate are never
      steady),
    - the group is full and fully committed:
      ``g*K + 1 >= max(walk_lo, commit_lo)`` and
      ``g*K + K <= min(walk_hi, commit_hi)``.
    """
    K = lanes
    geom = columns.geom
    T = len(geom)  # >= 1: fused_run returns before planning no tasks
    walk_hi, walk_lo, commit_hi, commit_lo = geom[:, 1:5].T
    live = walk_hi >= walk_lo  # degenerate tasks are dead on arrival
    g_hi = (walk_hi - 1) // K
    R_total = int(np.where(live, g_hi - (walk_lo - 1) // K + 1, 0).max())

    # Lanes each task ever activates (distinct (task, lane) pairs), and
    # the iteration after its last activation (act_iter is sorted
    # within a task, so that is the task's final entry).
    counts = np.diff(columns.act_ptr)
    task = np.repeat(np.arange(T), counts)
    order = np.lexsort((columns.act_lane, task))
    t_s, l_s = task[order], columns.act_lane[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (t_s[1:] != t_s[:-1]) | (l_s[1:] != l_s[:-1])
    covered = (columns.has_init != 0) | (
        np.bincount(t_s[first], minlength=T) >= K
    )
    act_end = np.zeros(T, dtype=np.int64)
    has_act = counts > 0
    act_end[has_act] = columns.act_iter[columns.act_ptr[1:][has_act] - 1] + 1

    hi_lim = np.minimum(walk_hi, commit_hi)
    lo_lim = np.maximum(walk_lo, commit_lo)
    g_max = (hi_lim - K) // K  # last group fully below hi_lim
    g_min = (lo_lim + K - 2) // K  # first group fully above lo_lim
    starts = np.maximum(act_end, g_hi - g_max)
    ends = g_hi - g_min + 1
    if np.all(live & covered & (g_max >= g_min) & (ends > starts)):
        return R_total, int(starts.max()), int(ends.min())
    return R_total, 0, 0  # at least one task never reaches steady state


def fused_run(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    columns: "TaskColumns",
    out: np.ndarray,
) -> EngineStats:
    """Decode every task of the plan, writing committed symbols into
    ``out``: one C call on a host with a compiler, else the numpy walk
    over the plan's lockstep groups (:func:`_lockstep_groups`).  Both
    report the same counters, and both name a task that fails its
    terminal drain by its row in ``columns``.

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved lanes per task (``K``).
    :param words: the 16-bit word stream all tasks read from.
    :param columns: the decode plan; tasks have disjoint commit
        ranges.
    :param out: preallocated output of the full sequence length; each
        position is written by exactly one task.
    :returns: work counters (iterations, symbols, words read).
    :raises DecodeError: task geometry inconsistent with the stream
        (start/activation out of range), the bitstream exhausting
        mid-walk, or a terminal drain that does not return every lane
        to the initial state ``L``.
    """
    if _runs_compiled(out):
        return _compiled_walk(provider, lanes, words, columns, out)
    return _numpy_walk(
        provider, lanes, words, columns, out, thread_arena(), steady=True
    )


def reference_walk(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    columns: "TaskColumns",
    out: np.ndarray,
) -> EngineStats:
    """:func:`fused_run`'s numpy walk with an empty steady window:
    every iteration runs the generic masked loop, on every host.

    The differential reference for the steady loop and the compiled
    walk: same contract, same output, same :class:`EngineStats`, same
    errors.  Unoptimized on purpose (fresh scratch per call).
    """
    return _numpy_walk(
        provider, lanes, words, columns, out, ScratchArena(), steady=False
    )


def _numpy_walk(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    columns: "TaskColumns",
    out: np.ndarray,
    arena: ScratchArena,
    steady: bool,
) -> EngineStats:
    """The numpy walk.  With ``steady``, each lockstep group of the
    plan (:func:`_lockstep_groups`) runs through :func:`_walk_group`
    with its steady window; without, the plan runs as one group with
    an empty window.  The groups' counters sum, except the iteration
    counts, which take the longest group's, as the C walk's do."""
    T = columns.num_tasks
    if T == 0:
        return EngineStats()
    words = np.asarray(words, dtype=np.uint16)
    W = len(words)
    ids_dense = (
        None if provider.is_static else provider.dense_model_ids(len(out))
    )
    # One uint64 copy of the stream, made once per run, so every
    # renormalization gather lands directly in the state dtype.
    words_u64 = arena.get_at_least("words_u64", W, np.uint64)[:W]
    words_u64[:] = words
    _check_starts(columns.geom, W)

    groups = _lockstep_groups(columns) if steady else None
    stats = EngineStats(tasks=T)
    for rows in groups or [None]:
        part = _walk_group(
            provider, lanes, words, words_u64, ids_dense,
            columns if rows is None else columns.rows(rows), out, arena,
            steady, rows,
        )
        stats.iterations = max(stats.iterations, part.iterations)
        stats.symbols_decoded += part.symbols_decoded
        stats.words_read += part.words_read
    stats.max_task_iterations = stats.iterations
    return stats


def _walk_group(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    words_u64: np.ndarray,
    ids_dense: np.ndarray | None,
    columns: "TaskColumns",
    out: np.ndarray,
    arena: ScratchArena,
    steady: bool,
    rows: np.ndarray | None,
) -> EngineStats:
    """One lockstep group: head, steady window (when ``steady`` and the
    group has one), tail, then the terminal drain.  ``rows`` are the
    group's rows in the caller's plan, which errors name (``None``:
    the group is the plan)."""
    K = lanes
    T = columns.num_tasks
    stats = EngineStats(tasks=T)

    n = provider.quant_bits
    n64 = np.uint64(n)
    rb = np.uint64(RENORM_BITS)
    slot_mask = np.uint64((1 << n) - 1)
    lbound = np.uint64(L_BOUND)
    W = len(words)

    tables = provider.decode_tables
    slot_count = np.uint64(tables.slot_count)
    static = provider.is_static
    if static:
        s1 = tables.sym_slot[0]
        f1 = tables.freq_slot[0]
        b1 = tables.bias_slot[0]
    else:
        s_flat = tables.sym_slot.ravel()
        f_flat = tables.freq_slot.ravel()
        b_flat = tables.bias_slot.ravel()

    # ---- task state -----------------------------------------------------
    geom = columns.geom
    pos = geom[:, 0].copy()
    cur = geom[:, 1].copy()
    lo, c_hi, c_lo, offs = geom[:, 2], geom[:, 3], geom[:, 4], geom[:, 5]

    x = arena.get("x", (T, K), np.uint64)
    x[:] = columns.init
    active = arena.get("active", (T, K), bool)
    np.not_equal(columns.has_init[:, None], 0, out=active)

    # ---- activation schedule: every task's, by install iteration -------
    order = np.argsort(columns.act_iter, kind="stable")
    a_iter = columns.act_iter[order]
    a_task = np.repeat(np.arange(T), np.diff(columns.act_ptr))[order]
    a_lane = columns.act_lane[order]
    a_state = columns.act_state[order]
    a_ptr = 0

    R_total, H, S = _plan_phases(columns, K)
    if not steady:
        H = S = 0

    lane_col = np.arange(K, dtype=np.int64)[None, :]
    out_dtype = out.dtype
    symbols_decoded = 0
    words_read = 0
    r = 0

    # ---- generic masked iteration (head and tail phases) ---------------
    def generic_until(r: int, r_stop: int) -> int:
        nonlocal a_ptr, symbols_decoded, words_read
        while r < r_stop:
            alive = cur >= lo
            if not alive.any():
                return r_stop  # all dead; skip straight to the end
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

            # Eq. 4 reads before decoding, descending lane order.
            need = part & (x < lbound)
            counts = need.sum(axis=1)
            if counts.any():
                rank = need[:, ::-1].cumsum(axis=1)[:, ::-1] - need
                rpos = pos[:, None] - rank
                src = rpos[need]
                if src.min() < 0 or src.max() >= W:
                    raise DecodeError(
                        "stream read out of range during renormalization "
                        "(corrupt metadata or truncated payload)"
                    )
                x[need] = (x[need] << rb) | words_u64[src]
                np.subtract(pos, counts, out=pos)
                words_read += int(counts.sum())

            # Eq. 2 via the slot-indexed tables.
            slot = x & slot_mask
            if static:
                sym = s1[slot]
                new_x = f1[slot] * (x >> n64) + b1[slot]
            else:
                g_idx = offs[:, None] + base[:, None] + lane_col
                np.clip(g_idx, 0, max(len(ids_dense) - 1, 0), out=g_idx)
                flat = ids_dense[g_idx] * slot_count + slot
                sym = s_flat[flat]
                new_x = f_flat[flat] * (x >> n64) + b_flat[flat]
            np.copyto(x, new_x, where=part)

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

            symbols_decoded += int(part.sum())
            np.copyto(cur, sl - 1, where=alive)
            r += 1
        return r

    r = generic_until(r, min(H, R_total) if H < S else R_total)

    # ---- steady state ---------------------------------------------------
    if H < S and r == H:
        steady_iters = S - H
        out_idx = arena.get("out_idx", (T, K), np.int64)

        # cur is a multiple of K for every task here (groups are full);
        # output positions advance by exactly -K per iteration.
        out_idx[:] = (offs + cur - K)[:, None] + lane_col
        pos_sum_before = int(pos.sum())
        _numpy_steady(
            arena, x, pos, out, out_idx, words_u64, steady_iters,
            static, tables, slot_mask, lbound, n64, rb, slot_count,
            ids_dense,
            (f1, b1, s1) if static else (f_flat, b_flat, s_flat),
            T, K,
        )

        words_read += pos_sum_before - int(pos.sum())
        symbols_decoded += steady_iters * T * K
        cur -= K * steady_iters
        r = S

    r = generic_until(r, R_total)

    stats.iterations = stats.max_task_iterations = r
    stats.symbols_decoded = symbols_decoded
    stats.words_read = words_read

    # ---- terminal drain & checks ---------------------------------------
    for ti in np.flatnonzero(geom[:, 6]).tolist():
        task = ti if rows is None else int(rows[ti])
        terminal_pos = int(geom[ti, 7])
        p = int(pos[ti])
        for lane in range(K - 1, -1, -1):
            xv = int(x[ti, lane])
            while xv < L_BOUND:
                if p <= terminal_pos:
                    raise DecodeError(
                        f"task {task}: stream exhausted in terminal drain"
                    )
                xv = (xv << RENORM_BITS) | int(words[p])
                p -= 1
                stats.words_read += 1
            x[ti, lane] = xv
        if p != terminal_pos:
            raise DecodeError(
                f"task {task}: stream region not fully consumed "
                f"(pos {p}, expected {terminal_pos})"
            )
        if np.any(x[ti] != L_BOUND):
            raise DecodeError(
                f"task {task}: lanes did not return to the initial state L"
            )
    return stats


def _numpy_steady(
    arena, x, pos, out, out_idx, words_u64, steady_iters,
    static, tables, slot_mask, lbound, n64, rb, slot_count,
    ids_dense, gather_tables, T, K,
):
    """The numpy steady-state loop.

    Mutates ``x``, ``pos``, ``out`` and ``out_idx`` in place.
    """
    need = arena.get("need", (T, K), bool)
    cbuf = arena.get("cbuf", (T, K), np.int64)
    rankb = arena.get("rankb", (T, K), np.int64)
    rposb = arena.get("rposb", (T, K), np.int64)
    wbuf = arena.get("wbuf", (T, K), np.uint64)
    tmp = arena.get("tmp", (T, K), np.uint64)
    slot = arena.get("slot", (T, K), np.uint64)
    fbuf = arena.get("fbuf", (T, K), np.uint64)
    bbuf = arena.get("bbuf", (T, K), np.uint64)
    symb = arena.get("symb", (T, K), tables.sym_slot.dtype)
    if not static:
        idsb = arena.get("idsb", (T, K), np.uint64)
        flatb = arena.get("flatb", (T, K), np.uint64)

    # Hoist everything hoistable: bound methods skip numpy's
    # Python-level dispatch wrappers, and the column views stay
    # valid because every buffer is written in place.
    counts = cbuf[:, K - 1]
    counts_col = cbuf[:, K - 1 :]
    pos_col = pos[:, None]
    need_any = need.any
    need_cumsum = need.cumsum
    pos_min = pos.min
    take_words = words_u64.take
    if static:
        f1, b1, s1 = gather_tables
        take_f, take_b, take_s = f1.take, b1.take, s1.take
    else:
        f_flat, b_flat, s_flat = gather_tables
        take_ids = ids_dense.take
        take_f, take_b, take_s = f_flat.take, b_flat.take, s_flat.take

    for _ in range(steady_iters):
        # Eq. 4: renormalization reads, descending lane order.
        np.less(x, lbound, out=need)
        if need_any():
            need_cumsum(axis=1, out=cbuf)
            np.subtract(counts_col, cbuf, out=rankb)
            np.subtract(pos_col, rankb, out=rposb)
            np.subtract(pos, counts, out=pos)
            if pos_min() < -1:
                raise DecodeError(
                    "bitstream exhausted during renormalization"
                )
            take_words(rposb, out=wbuf, mode="clip")
            np.left_shift(x, rb, out=tmp)
            np.bitwise_or(tmp, wbuf, out=tmp)
            np.copyto(x, tmp, where=need)
        # Eq. 2: decode all M*K lanes with single-gather tables.
        np.bitwise_and(x, slot_mask, out=slot)
        np.right_shift(x, n64, out=tmp)
        if static:
            take_f(slot, out=fbuf)
            take_b(slot, out=bbuf)
            take_s(slot, out=symb)
        else:
            take_ids(out_idx, out=idsb)
            np.multiply(idsb, slot_count, out=flatb)
            np.add(flatb, slot, out=flatb)
            take_f(flatb, out=fbuf)
            take_b(flatb, out=bbuf)
            take_s(flatb, out=symb)
        np.multiply(fbuf, tmp, out=x)
        np.add(x, bbuf, out=x)
        # Commit the whole group of every task.
        out[out_idx] = symb
        np.subtract(out_idx, K, out=out_idx)


# ---------------------------------------------------------------------------
# The decode plan, and the compiled walk: one C call over its columns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskColumns:
    """The decode plan: every task of a batch, as columns.

    A *task* is one logical decoder thread: ``K`` interleaved lanes
    walking local symbol indices from ``walk_hi`` down to ``walk_lo``
    (1-based) over a word stream, reading backwards from
    ``start_pos``, and writing the symbols inside
    ``[commit_lo, commit_hi]`` to output position
    ``global_offset + index - 1`` (DESIGN.md §7).  Its lanes come
    alive from initial states (all lanes live from the start, e.g. a
    decode from the final states) or from *activations*: lane
    ``lane`` takes state ``state`` when the walk reaches ``index`` —
    the Recoil synchronization mechanism; a task may have both.  A
    task with ``check_terminal`` set drains its lanes after the walk
    and verifies they return to ``L`` with the stream consumed down
    to ``terminal_pos`` (one before its region start).

    ``geom[t]`` holds task ``t``'s ``start_pos``, ``walk_hi``,
    ``walk_lo``, ``commit_hi``, ``commit_lo``, ``global_offset``,
    ``check_terminal`` and ``terminal_pos``; ``init`` its initial
    states (``L`` where ``has_init[t]`` is 0).  The activations of
    task ``t`` are ``act_*[act_ptr[t]:act_ptr[t+1]]``, ordered by
    ``act_iter`` — the walk iteration that installs them — with ties
    in input order.  :meth:`build` checks the stream-independent plan
    invariants, so a cached instance is already validated; the kernels
    check start positions against the stream they run on.
    """

    geom: np.ndarray  # (T, 8) int64
    init: np.ndarray  # (T, K) uint64
    has_init: np.ndarray  # (T,) uint8
    act_ptr: np.ndarray  # (T + 1,) int64
    act_iter: np.ndarray  # (A,) int64
    act_lane: np.ndarray  # (A,) int64
    act_state: np.ndarray  # (A,) uint64

    @classmethod
    def build(
        cls,
        lanes: int,
        *,
        start_pos,
        walk_hi,
        walk_lo,
        commit_hi,
        commit_lo,
        global_offset=0,
        check_terminal=False,
        terminal_pos=-1,
        init_task=(),
        init_states=None,
        act_task=(),
        act_index=(),
        act_lane=(),
        act_state=(),
    ) -> "TaskColumns":
        """The validated plan of ``T`` tasks (vectorized, no Python
        work per task or activation).

        Each geometry argument is a ``(T,)`` column, or a scalar every
        task shares.  Row ``i`` of ``init_states`` (``(I, lanes)``)
        seeds task ``init_task[i]``; activation ``a`` installs
        ``act_state[a]`` into lane ``act_lane[a]`` of task
        ``act_task[a]`` when its walk reaches local index
        ``act_index[a]``.

        :raises DecodeError: ``lanes < 1``, initial states not of
            shape ``(lanes,)``, or an activation index outside its
            task's walk range.
        """
        K = lanes
        if K < 1:
            raise DecodeError(f"lanes must be >= 1, got {K}")
        geom = np.stack(
            [
                np.atleast_1d(c)
                for c in np.broadcast_arrays(*(
                    np.asarray(c, dtype=np.int64)
                    for c in (
                        start_pos, walk_hi, walk_lo, commit_hi, commit_lo,
                        global_offset, check_terminal, terminal_pos,
                    )
                ))
            ],
            axis=1,
        )
        T = len(geom)
        init_task = np.asarray(init_task, dtype=np.int64).reshape(-1)
        init = np.full((T, K), L_BOUND, dtype=np.uint64)
        has_init = np.zeros(T, dtype=np.uint8)
        if init_task.size:
            states = np.asarray(init_states, dtype=np.uint64)
            if states.shape != (init_task.size, K):
                raise DecodeError(
                    f"task {init_task[0]}: initial_states must have "
                    f"shape ({K},)"
                )
            init[init_task] = states
            has_init[init_task] = 1

        act_task = np.asarray(act_task, dtype=np.int64).reshape(-1)
        act_idx = np.asarray(act_index, dtype=np.int64).reshape(-1)
        hi = geom[act_task, 1]
        lo = geom[act_task, 2]
        bad = np.flatnonzero((act_idx < lo) | (act_idx > hi))
        if bad.size:
            a = bad[0]
            raise DecodeError(
                f"task {act_task[a]}: activation index {act_idx[a]} "
                f"outside walk range [{lo[a]}, {hi[a]}]"
            )
        act_iter = (hi - 1) // K - (act_idx - 1) // K  # >= 0 here
        # One stable sort on a (task, iteration) key: ties keep input
        # order (a two-key lexsort costs about twice as much).
        order = np.argsort(
            act_task * (int(act_iter.max(initial=0)) + 1) + act_iter,
            kind="stable",
        )
        lane = np.asarray(act_lane, dtype=np.int64).reshape(-1)
        state = np.asarray(act_state, dtype=np.uint64).reshape(-1)
        return cls(
            geom=geom,
            init=init,
            has_init=has_init,
            act_ptr=np.concatenate(
                ([0], np.cumsum(np.bincount(act_task, minlength=T)))
            ),
            act_iter=act_iter[order],
            act_lane=lane[order],
            act_state=state[order],
        )

    @property
    def num_tasks(self) -> int:
        return len(self.geom)

    @property
    def walk_lengths(self) -> np.ndarray:
        """Symbols each task walks — sync, committed and cross-boundary
        alike: ``walk_hi - walk_lo + 1``, 0 for an empty walk.  The one
        per-task cost weight of the thread pool, the cost model and the
        workload summary."""
        return np.maximum(self.geom[:, 1] - self.geom[:, 2] + 1, 0)

    def rows(self, index) -> "TaskColumns":
        """The plan of the tasks at ``index``, in that order (a pool
        bucket, or one task run on its own)."""
        index = np.asarray(index, dtype=np.int64).reshape(-1)
        first = self.act_ptr[index]
        counts = self.act_ptr[index + 1] - first
        ptr = np.concatenate(([0], np.cumsum(counts)))
        pick = np.repeat(first - ptr[:-1], counts) + np.arange(ptr[-1])
        return TaskColumns(
            geom=self.geom[index],
            init=self.init[index],
            has_init=self.has_init[index],
            act_ptr=ptr,
            act_iter=self.act_iter[pick],
            act_lane=self.act_lane[pick],
            act_state=self.act_state[pick],
        )

    @classmethod
    def concat(
        cls, parts: list[tuple["TaskColumns", int, int]]
    ) -> "TaskColumns":
        """Stack ``(columns, word_base, sym_base)`` parts into one
        batch, shifting stream positions (``start_pos``,
        ``terminal_pos``) by the word base and output positions
        (``global_offset``) by the symbol base, in O(parts) numpy
        calls.  Walk and commit indices and activations stay as they
        are: the walk is defined in task-local coordinates (DESIGN.md
        §7), so a rebased task is indistinguishable from a native
        one."""
        if len(parts) == 1 and parts[0][1] == 0 and parts[0][2] == 0:
            return parts[0][0]
        cols = [c for c, _, _ in parts]
        tasks = [len(c.geom) for c in cols]
        geom = np.concatenate([c.geom for c in cols])
        word_shift = np.repeat([wb for _, wb, _ in parts], tasks)
        geom[:, 0] += word_shift
        geom[:, 7] += word_shift
        geom[:, 5] += np.repeat([sb for _, _, sb in parts], tasks)
        act_base = np.cumsum([0] + [c.act_ptr[-1] for c in cols])
        return cls(
            geom=geom,
            init=np.concatenate([c.init for c in cols]),
            has_init=np.concatenate([c.has_init for c in cols]),
            act_ptr=np.concatenate(
                [[0]] + [c.act_ptr[1:] + b for c, b in zip(cols, act_base)]
            ),
            act_iter=np.concatenate([c.act_iter for c in cols]),
            act_lane=np.concatenate([c.act_lane for c in cols]),
            act_state=np.concatenate([c.act_state for c in cols]),
        )


def _check_starts(geom: np.ndarray, W: int) -> None:
    """Every task's start position must lie below the stream end."""
    bad = np.flatnonzero(geom[:, 0] >= W)
    if bad.size:
        t = bad[0]
        raise DecodeError(
            f"task {t}: start position {geom[t, 0]} beyond stream of "
            f"{W} words"
        )


def _runs_compiled(out: np.ndarray) -> bool:
    """Whether this call takes the compiled walk: the host has it and
    it can store into ``out``."""
    return compiled.kernel_available() and compiled.walk_output_supported(
        out
    )


def _compiled_walk(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    columns: TaskColumns,
    out: np.ndarray,
) -> EngineStats:
    """:func:`fused_run` on the compiled kernel: check the start
    positions against ``words`` (vectorized), then one C call."""
    words = np.require(words, np.uint16, "CA")
    geom = columns.geom
    _check_starts(geom, len(words))
    n = provider.quant_bits
    tables = provider.decode_tables
    packed = None
    if provider.is_static:
        gather = (
            tables.freq_slot[0], tables.bias_slot[0], tables.sym_u64[0]
        )
        ids = None
        if tables.packed is not None:
            packed = tables.packed[0]
    else:
        gather = (
            tables.freq_slot.ravel(), tables.bias_slot.ravel(),
            tables.sym_u64.ravel(),
        )
        ids = provider.dense_model_ids(len(out))
    counters = compiled.rans_walk(
        words, *gather, tables.slot_count, (1 << n) - 1, ids, n,
        RENORM_BITS, L_BOUND, out, lanes, geom, columns.init,
        columns.has_init, columns.act_ptr, columns.act_iter,
        columns.act_lane, columns.act_state, packed=packed,
    )
    symbols, words_read, iterations = (int(c) for c in counters[:3])
    return EngineStats(
        iterations=iterations,
        symbols_decoded=symbols,
        words_read=words_read,
        tasks=len(geom),
        max_task_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Multi-buffer fusion: tasks spanning several independent word streams.
# ---------------------------------------------------------------------------


@dataclass
class StreamSegment:
    """One independent decode joining a fused multi-buffer run.

    A segment is exactly the argument triple of :func:`fused_run` —
    a word stream, the plan walking it, and the output length — for
    one logical request.  :func:`fused_run_multi` concatenates many
    segments into a single virtual stream/output so their tasks
    run in one kernel call (DESIGN.md §12: cross-request fusion).
    """

    words: np.ndarray
    columns: TaskColumns = field(repr=False)
    num_symbols: int


@dataclass
class MultiRunResult:
    """Output of :func:`fused_run_multi`."""

    out: np.ndarray  # one flat output covering every segment
    slices: list[slice]  # per-segment views into ``out``
    stats: EngineStats

    def segment_outputs(self) -> list[np.ndarray]:
        return [self.out[s] for s in self.slices]


def _stack_streams(
    segments: list[StreamSegment],
) -> tuple[np.ndarray, list[tuple[int, int]], list[slice]]:
    """Concatenate the (one or more) segments' word streams and lay
    out one output.

    Returns ``(words, bases, out_slices)`` where ``bases[i]`` is
    segment ``i``'s ``(word_base, sym_base)``.  Segments sharing one
    word-buffer *object* (the dominant serving case: many concurrent
    requests for the same asset) share one copy in the concatenation
    — their tasks simply rebase onto the same word base, like
    multiple tasks of a single stream.
    """
    word_arrays: list[np.ndarray] = []
    word_bases: dict[int, int] = {}  # id(words) -> assigned base
    bases: list[tuple[int, int]] = []
    out_slices: list[slice] = []
    next_base = 0
    sym_base = 0
    for seg in segments:
        word_base = word_bases.get(id(seg.words))
        if word_base is None:
            w = np.asarray(seg.words, dtype=np.uint16)
            word_arrays.append(w)
            word_bases[id(seg.words)] = word_base = next_base
            next_base += len(w)
        bases.append((word_base, sym_base))
        out_slices.append(slice(sym_base, sym_base + seg.num_symbols))
        sym_base += seg.num_symbols
    return np.concatenate(word_arrays), bases, out_slices


def fused_run_multi(
    provider: AdaptiveModelProvider,
    lanes: int,
    segments: list[StreamSegment],
    out_dtype=None,
) -> MultiRunResult:
    """Decode many independent (words, plan) segments as ONE kernel run.

    This is the serving-side payoff of the fused layout: ``S``
    requests of ``T_i`` tasks each become one plan of ``sum(T_i)``
    tasks, so per-call overhead — and on numpy, per-iteration
    interpreter overhead, paid once per lockstep group — is paid once
    per *batch* instead of once per request.  All segments must share
    ``provider`` and ``lanes``; multi-segment fusion requires a
    *static* provider (adaptive model ids are positional in the
    original sequence and do not survive output rebasing — dispatch
    those one segment at a time).

    Stream-underflow detection is per concatenated stream: a corrupt
    segment that under-reads past its own region is caught by the
    terminal drain (``terminal_pos`` check) rather than immediately at
    the read, exactly like a corrupt task inside a single stream.

    :param segments: independent decodes to fuse; shared word-buffer
        objects are concatenated only once.
    :param out_dtype: output dtype (default: the provider's).
    :returns: one freshly allocated flat output plus per-segment
        slices and aggregate work counters.
    :raises DecodeError: more than one segment with a non-static
        provider (positional model ids do not survive rebasing), or
        any corruption :func:`fused_run` detects.
    :raises FaultInjected: the ``kernel.exec`` fault point is armed
        and fired (chaos runs only; :mod:`repro.faults`).
    """
    faults.fire(faults.KERNEL_EXEC)
    if len(segments) > 1 and not provider.is_static:
        raise DecodeError(
            "multi-segment fusion requires a static model provider; "
            "adaptive-model decodes must be dispatched individually"
        )
    if out_dtype is None:
        out_dtype = provider.out_dtype
    # Results escape to callers, so the output is a fresh allocation
    # (arena rule 2, DESIGN.md §9); segment views share this buffer.
    out = np.empty(sum(s.num_symbols for s in segments), dtype=out_dtype)
    if not segments:
        return MultiRunResult(out=out, slices=[], stats=EngineStats())
    words, bases, out_slices = _stack_streams(segments)
    columns = TaskColumns.concat([
        (seg.columns, word_base, sym_base)
        for seg, (word_base, sym_base) in zip(segments, bases)
    ])
    stats = fused_run(provider, lanes, words, columns, out)
    return MultiRunResult(out=out, slices=out_slices, stats=stats)
