"""Fused wide-lane rANS decode kernel.

This is the hot path of the whole reproduction (DESIGN.md §8).  The
reference engine (:meth:`~repro.parallel.simd.LaneEngine.run_reference`)
models the paper's SIMD/CUDA decoders faithfully but spends most of its
time in Python/numpy *dispatch*: every iteration rebuilds participation
masks, reallocates temporaries and re-casts tables for arrays of only
``tasks x 32`` elements.  The fused kernel keeps the exact same walk
semantics (DESIGN.md §7) while restructuring the work so that the
common case — every partition mid-stream, all lanes live, full groups,
everything committed — runs a minimal straight-line sequence of
in-place vectorized operations over one flat ``(M*K,)`` state vector.
This is the paper's decoder-adaptive scalability claim made real in
Python: combining M partitions widens the effective vector M-fold and
the per-symbol interpreter overhead drops accordingly.

Structure of one run:

1. **Head** (generic masked iterations): partial first groups, lane
   activations (the Synchronization Phase), commit-range boundaries.
2. **Steady state**: every task is alive, fully activated, walking
   full interleave groups that are entirely inside its commit range.
   No masks, no ``np.where``, no allocation — all operands live in a
   :class:`~repro.parallel.buffers.ScratchArena` and every Eq. 2
   table access is a single gather into a pre-materialized
   slot-indexed uint64 table (:class:`~repro.rans.adaptive.DecodeTables`).
3. **Tail** (generic again): the final, possibly partial, group of
   each task plus the terminal drain.

Phase boundaries are computed analytically from the task geometry
before the loop starts, so the steady loop carries no per-iteration
phase checks.

``kernel="compiled"`` replaces all three phases with one C call that
walks every task end to end (:func:`repro.parallel.compiled.rans_walk`,
DESIGN.md §19): tasks share only the read-only word stream and
disjoint output ranges, so the compiled walk needs neither lockstep
masks nor the global steady window.  Its input is the columnar
:class:`TaskColumns` form of the task list; this numpy path stays the
portable fallback and the oracle the compiled walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import faults
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.buffers import ScratchArena
from repro.parallel.simd import EngineStats, ThreadTask
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS


def _group(index: int, lanes: int) -> int:
    """0-based interleave group of a 1-based symbol index."""
    return (index - 1) // lanes


def _plan_phases(
    tasks: list[ThreadTask], lanes: int
) -> tuple[np.ndarray, int, int, int]:
    """Analytic iteration geometry for a task batch.

    Returns ``(R, R_total, H, S)`` where ``R[t]`` is task ``t``'s total
    iteration count, ``R_total`` the global loop length, and
    ``[H, S)`` the global steady-state window (empty when ``H >= S``).

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
    T = len(tasks)
    R = np.zeros(T, dtype=np.int64)
    starts = np.zeros(T, dtype=np.int64)
    ends = np.zeros(T, dtype=np.int64)
    for ti, t in enumerate(tasks):
        if t.walk_hi < t.walk_lo:
            continue  # degenerate: dead on arrival, empty window
        g_hi = _group(t.walk_hi, K)
        g_lo = _group(t.walk_lo, K)
        R[ti] = g_hi - g_lo + 1

        act_end = 0
        covered = t.initial_states is not None
        if not covered:
            covered = len({lane for _, lane, _ in t.activations}) >= K
        if not covered:
            continue  # some lane never activates: no steady window
        if t.activations:
            act_end = max(
                g_hi - _group(idx, K) for idx, _, _ in t.activations
            ) + 1

        hi_lim = min(t.walk_hi, t.commit_hi)
        lo_lim = max(t.walk_lo, t.commit_lo)
        g_max = (hi_lim - K) // K  # last group fully below hi_lim
        g_min = (lo_lim + K - 2) // K  # first group fully above lo_lim
        if g_max < g_min:
            continue
        starts[ti] = max(act_end, g_hi - g_max)
        ends[ti] = g_hi - g_min + 1

    R_total = int(R.max()) if T else 0
    if T and np.all(ends > starts):
        H = int(starts.max())
        S = int(ends.min())
    else:
        H, S = 0, 0  # at least one task never reaches steady state
    return R, R_total, H, S


def fused_run(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    tasks: list[ThreadTask],
    out: np.ndarray,
    arena: ScratchArena,
    kernel: str = "numpy",
) -> EngineStats:
    """Decode every task into ``out`` (same contract as
    :meth:`~repro.parallel.simd.LaneEngine.run`).

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved lanes per task (``K``).
    :param words: the 16-bit word stream all tasks read from.
    :param tasks: decode tasks with disjoint commit ranges.
    :param out: preallocated output of the full sequence length; each
        position is written by exactly one task.
    :param arena: caller-owned scratch buffers (not thread-safe —
        one arena per concurrently running kernel, DESIGN.md §9).
    :param kernel: ``"numpy"`` (default) or ``"compiled"`` — walk
        every task in one call to the compiled kernel
        (:mod:`repro.parallel.compiled`) when a toolchain is up;
        bit-identical either way, silently numpy otherwise.
    :returns: work counters (iterations, symbols, words read).
    :raises DecodeError: task geometry inconsistent with the stream
        (start/activation out of range), the bitstream exhausting
        mid-walk, or a terminal drain that does not return every lane
        to the initial state ``L``.
    """
    columns = TaskColumns.from_tasks(tasks, lanes)
    if _runs_compiled(kernel, out):
        return _compiled_walk(provider, lanes, words, columns, out)
    K = lanes
    T = len(tasks)
    stats = EngineStats(tasks=T)
    if T == 0:
        return stats

    n = provider.quant_bits
    n64 = np.uint64(n)
    rb = np.uint64(RENORM_BITS)
    slot_mask = np.uint64((1 << n) - 1)
    lbound = np.uint64(L_BOUND)
    words = np.asarray(words, dtype=np.uint16)
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
        ids_dense = provider.dense_model_ids(len(out))

    # One uint64 copy of the stream, made once per run, so every
    # renormalization gather lands directly in the state dtype.
    words_u64 = arena.get_at_least("words_u64", W, np.uint64)[:W]
    words_u64[:] = words

    # ---- task state -----------------------------------------------------
    geom = columns.geom
    _check_starts(geom, W)
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

    _, R_total, H, S = _plan_phases(tasks, K)

    lane_col = np.arange(K, dtype=np.int64)[None, :]
    out_dtype = out.dtype
    per_task_iters = np.zeros(T, dtype=np.int64)
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
            per_task_iters[alive] += 1
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
            None if static else ids_dense,
            (f1, b1, s1) if static else (f_flat, b_flat, s_flat),
            T, K,
        )

        words_read += pos_sum_before - int(pos.sum())
        symbols_decoded += steady_iters * T * K
        per_task_iters += steady_iters
        cur -= K * steady_iters
        r = S

    r = generic_until(r, R_total)

    stats.iterations = r
    stats.symbols_decoded = symbols_decoded
    stats.words_read = words_read
    stats.max_task_iterations = int(per_task_iters.max()) if T else 0

    # ---- terminal drain & checks ---------------------------------------
    for ti, t in enumerate(tasks):
        if not t.check_terminal:
            continue
        p = int(pos[ti])
        for lane in range(K - 1, -1, -1):
            xv = int(x[ti, lane])
            while xv < L_BOUND:
                if p <= t.terminal_pos:
                    raise DecodeError(
                        f"task {ti}: stream exhausted in terminal drain"
                    )
                xv = (xv << RENORM_BITS) | int(words[p])
                p -= 1
                stats.words_read += 1
            x[ti, lane] = xv
        if p != t.terminal_pos:
            raise DecodeError(
                f"task {ti}: stream region not fully consumed "
                f"(pos {p}, expected {t.terminal_pos})"
            )
        if np.any(x[ti] != L_BOUND):
            raise DecodeError(
                f"task {ti}: lanes did not return to the initial state L"
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
# The compiled walk: columnar tasks, vectorized plan checks, one C call.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskColumns:
    """A task list in the columnar form the compiled walk reads.

    ``geom[t]`` holds task ``t``'s ``start_pos``, ``walk_hi``,
    ``walk_lo``, ``commit_hi``, ``commit_lo``, ``global_offset``,
    ``check_terminal`` and ``terminal_pos``; ``init`` its initial
    states (``L`` where ``has_init[t]`` is 0).  The
    activations of task ``t`` are ``act_*[act_ptr[t]:act_ptr[t+1]]``,
    ordered by ``act_iter`` — the walk iteration that installs them —
    with ties in list order.  Building the columns checks the
    stream-independent plan invariants, so a cached instance is
    already validated; :func:`_compiled_walk` checks start positions
    against the stream it runs on.
    """

    geom: np.ndarray  # (T, 8) int64
    init: np.ndarray  # (T, K) uint64
    has_init: np.ndarray  # (T,) uint8
    act_ptr: np.ndarray  # (T + 1,) int64
    act_iter: np.ndarray  # (A,) int64
    act_lane: np.ndarray  # (A,) int64
    act_state: np.ndarray  # (A,) uint64

    @classmethod
    def from_tasks(
        cls, tasks: list[ThreadTask], lanes: int
    ) -> "TaskColumns":
        """Columns of ``tasks`` (O(T) Python, vectorized checks).

        :raises DecodeError: ``lanes < 1``, ``initial_states`` not of
            shape ``(lanes,)``, or an activation index outside its
            task's walk range.
        """
        K = lanes
        if K < 1:
            raise DecodeError(f"lanes must be >= 1, got {K}")
        T = len(tasks)
        geom = np.array(
            [
                (t.start_pos, t.walk_hi, t.walk_lo, t.commit_hi,
                 t.commit_lo, t.global_offset, t.check_terminal,
                 t.terminal_pos)
                for t in tasks
            ],
            dtype=np.int64,
        ).reshape(T, 8)
        init = np.full((T, K), L_BOUND, dtype=np.uint64)
        has_init = np.zeros(T, dtype=np.uint8)
        counts = np.zeros(T, dtype=np.int64)
        acts: list[tuple[int, int, int]] = []
        for ti, t in enumerate(tasks):
            if t.initial_states is not None:
                st = np.asarray(t.initial_states, dtype=np.uint64)
                if st.shape != (K,):
                    raise DecodeError(
                        f"task {ti}: initial_states must have shape ({K},)"
                    )
                init[ti] = st
                has_init[ti] = 1
            counts[ti] = len(t.activations)
            acts += t.activations
        idx, lane, state = zip(*acts) if acts else ((), (), ())
        act_idx = np.array(idx, dtype=np.int64)
        act_task = np.repeat(np.arange(T), counts)
        hi = geom[act_task, 1]
        lo = geom[act_task, 2]
        bad = np.flatnonzero((act_idx < lo) | (act_idx > hi))
        if bad.size:
            a = bad[0]
            raise DecodeError(
                f"task {act_task[a]}: activation index {act_idx[a]} "
                f"outside walk range [{lo[a]}, {hi[a]}]"
            )
        act_iter = (hi - 1) // K - (act_idx - 1) // K
        order = np.lexsort((act_iter, act_task))
        return cls(
            geom=geom,
            init=init,
            has_init=has_init,
            act_ptr=np.concatenate(([0], np.cumsum(counts))),
            act_iter=act_iter[order],
            act_lane=np.array(lane, dtype=np.int64)[order],
            act_state=np.array(state, dtype=np.uint64)[order],
        )

    @classmethod
    def concat(
        cls, parts: list[tuple["TaskColumns", int, int]]
    ) -> "TaskColumns":
        """Stack ``(columns, word_base, sym_base)`` parts into one
        batch, shifting stream positions by the word base and output
        positions by the symbol base (the :func:`fuse_segments`
        rebasing, O(parts) numpy calls)."""
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


def _runs_compiled(kernel: str, out: np.ndarray) -> bool:
    """Whether this call takes the compiled walk."""
    return (
        kernel == "compiled"
        and compiled.kernel_available()
        and compiled.walk_output_supported(out)
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
    if provider.is_static:
        gather = (
            tables.freq_slot[0], tables.bias_slot[0], tables.sym_slot[0]
        )
        ids = None
    else:
        gather = (
            tables.freq_slot.ravel(), tables.bias_slot.ravel(),
            tables.sym_slot.ravel(),
        )
        ids = provider.dense_model_ids(len(out))
    counters = compiled.rans_walk(
        words, *gather, tables.slot_count, (1 << n) - 1, ids, n,
        RENORM_BITS, L_BOUND, out, lanes, geom, columns.init,
        columns.has_init, columns.act_ptr, columns.act_iter,
        columns.act_lane, columns.act_state,
    )
    symbols, words_read, iterations = (int(c) for c in counters)
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


def geometry_bucket(tasks, lanes: int) -> int:
    """Walk-geometry bucket for fusion grouping.

    The numpy kernel's steady-state fast path covers the intersection
    of all tasks' steady windows (DESIGN.md §8): fusing a
    capacity-1 decode (one task walking the whole sequence) with a
    capacity-64 decode (64 short tasks) collapses that intersection
    and — worse — keeps the batch at full width long after the short
    tasks die.  Decodes therefore only fuse when their longest task
    walks a similar number of interleave groups; this returns the
    power-of-two band of that length (≤2x spread within a bucket), so
    same-shape decodes always share a bucket while pathologically
    unequal ones never do.  The compiled walk runs each task on its
    own and has no such window; the bucket only matters on the numpy
    path.  Used by the serve batcher and the multi-frame decoder.
    """
    longest = max(
        (t.walk_hi - t.walk_lo) // lanes + 1 for t in tasks
    )
    return longest.bit_length()


@dataclass
class StreamSegment:
    """One independent decode joining a fused multi-buffer run.

    A segment is exactly the argument triple of :func:`fused_run` —
    a word stream, the tasks walking it, and the output length — for
    one logical request.  :func:`fused_run_multi` concatenates many
    segments into a single virtual stream/output so their tasks
    advance together in one ``(sum(T_i) * K,)``-wide kernel call
    (DESIGN.md §12: cross-request fusion).
    """

    words: np.ndarray
    tasks: list[ThreadTask] = field(repr=False)
    num_symbols: int
    #: ``tasks`` in columnar form when the caller caches it (the
    #: serve path keeps one per shrunk variant); built on demand by
    #: the compiled walk otherwise.
    columns: TaskColumns | None = field(default=None, repr=False)

    @property
    def lane_count(self) -> int:
        """Task-lanes this segment contributes to a fused batch."""
        return len(self.tasks)


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
) -> tuple[np.ndarray, list[tuple[int, int]], list[slice], int]:
    """Concatenate the segments' word streams and lay out one output.

    Returns ``(words, bases, out_slices, total_symbols)`` where
    ``bases[i]`` is segment ``i``'s ``(word_base, sym_base)``.
    Segments sharing one word-buffer *object* share one copy of it.
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
    if word_arrays:
        words = np.concatenate(word_arrays)
    else:
        words = np.empty(0, dtype=np.uint16)
    return words, bases, out_slices, sym_base


def fuse_segments(
    segments: list[StreamSegment],
) -> tuple[np.ndarray, list[ThreadTask], list[slice], int]:
    """Rebase many segments onto one concatenated stream and output.

    Word streams are stacked back to back and every task's stream
    positions (``start_pos``, ``terminal_pos``) shift by its segment's
    word base; output positions shift via ``global_offset``.  Local
    walk/commit indices and activation entries are untouched — the
    walk is defined in task-local coordinates (DESIGN.md §7), so a
    rebased task is indistinguishable from a native one.

    Segments sharing one word-buffer *object* (the dominant serving
    case: many concurrent requests for the same asset) share one copy
    in the concatenation — their tasks simply rebase onto the same
    word base, like multiple tasks of a single stream.

    Returns ``(words, tasks, out_slices, total_symbols)``.
    """
    words, bases, out_slices, total = _stack_streams(segments)
    fused_tasks = [
        replace(
            t,
            start_pos=t.start_pos + word_base,
            global_offset=t.global_offset + sym_base,
            terminal_pos=t.terminal_pos + word_base,
        )
        for seg, (word_base, sym_base) in zip(segments, bases)
        for t in seg.tasks
    ]
    return words, fused_tasks, out_slices, total


def fused_run_multi(
    provider: AdaptiveModelProvider,
    lanes: int,
    segments: list[StreamSegment],
    arena: ScratchArena,
    out_dtype=None,
    kernel: str = "numpy",
) -> MultiRunResult:
    """Decode many independent (words, tasks) segments as ONE kernel run.

    This is the serving-side payoff of the fused layout: ``S``
    requests of ``T_i`` tasks each become a single ``(sum(T_i), K)``
    state matrix, so per-iteration interpreter overhead is paid once
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
    :param arena: caller-owned scratch buffers (DESIGN.md §9).
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
    if _runs_compiled(kernel, out):
        # Columnar rebasing: O(segments) numpy calls, no per-task
        # ThreadTask copies.
        words, bases, out_slices, _ = _stack_streams(segments)
        columns = TaskColumns.concat([
            (
                seg.columns
                if seg.columns is not None
                else TaskColumns.from_tasks(seg.tasks, lanes),
                word_base,
                sym_base,
            )
            for seg, (word_base, sym_base) in zip(segments, bases)
        ])
        stats = _compiled_walk(provider, lanes, words, columns, out)
    else:
        words, tasks, out_slices, _ = fuse_segments(segments)
        stats = fused_run(provider, lanes, words, tasks, out, arena)
    return MultiRunResult(out=out, slices=out_slices, stats=stats)
