"""Fused self-synchronizing tANS kernel (multians wide-lane decode).

The third fused kernel of the repo (after the rANS decode and encode
kernels in :mod:`repro.parallel.fused` / ``fused_encode``): all ``P``
speculative multians chunks advance as one ``(P,)``-wide state vector
per interpreter step, instead of one symbol per iteration per thread.

Layout (DESIGN.md §13):

- :func:`bit_windows` precomputes, for every byte offset of the
  payload, the 24-bit big-endian window starting there.  A read of
  ``nb <= 16`` bits at bit position ``p`` is then two integer ops
  against ``win24[p >> 3]`` (7 skew bits + 16 payload bits < 24) —
  vectorized, this replaces the per-bit ``(val << 1) | bits[p]``
  loops and the ``(P, 16)`` window mat-vec of the seed pass.
- :func:`fused_speculative_pass` decodes every chunk's own bit range
  as one wide state vector.  While every chunk is strictly inside its
  range the kernel runs a branch-free *safe run* (no masks, no
  reductions) whose length is planned from the minimum remaining bits
  at the maximum bits-per-symbol; stragglers finish under ``where``
  masks.  Trajectories are staged row-wise — row ``i`` holds every
  chunk's (bit position, state) before its ``i``-th symbol — and
  symbols are never materialized per step: they are one bulk
  ``dec_sym[state - T]`` gather at stitch time.
- :func:`fused_overshoot_pass` is the synchronization search, also
  run wide: every chunk keeps decoding past its boundary, probing a
  dense position -> (step, state) table of the recorded trajectories
  (last write wins, matching the reference dict semantics).  A hit
  freezes the lane; the stitch then only assembles arrays.
- :func:`fused_stitch` walks the chunk chain in order, consuming the
  wide overshoot records per boundary with ``searchsorted`` probes
  into each chunk's sorted ``traj_pos`` column; it falls back to the
  scalar walk only where the wide search gave up (the n=16 collapse,
  where nothing synchronizes and the baseline degrades by design).

:func:`staged_single_decode` is the serial single-stream counterpart:
the unavoidable state dependency chain is reduced to a straight-line
sweep that only stages the table-entry trajectory; symbol extraction
happens as one array op after the sweep.

Unlike the rANS kernels this one has no compiled twin: it runs numpy
on every host (DESIGN.md §19 retired the C safe run, which read its
table and windows unchecked).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodeError
from repro.tans.table import TansTable

# Packed decode-entry fields (TansTable.packed_decode_entries).
_PK_MASK = (1 << 17) - 1
_PK_NB_SHIFT = 17
_PK_BASE_SHIFT = 22

# Dense trajectory-probe packing: state (< 2**17) | step << 18.
_REC_STATE_BITS = 18
_REC_STATE_MASK = (1 << _REC_STATE_BITS) - 1

# Wide-search stopping rules.  A wide step costs roughly one scalar
# microsecond *total* regardless of how many lanes are live, while the
# stitch's scalar walk pays per symbol — so the search is only worth
# running while enough lanes still advance, and must concede quickly
# when the stream does not synchronize (the collapse regime).
#
# - below _STOP_ACTIVE live lanes, scalar walking the few stragglers
#   is cheaper than stepping the whole vector (breakeven of the
#   measured wide-step vs scalar-step costs);
# - at checkpoint t=512 with zero matches, nothing synchronizes;
# - at checkpoint t=2048 with under a quarter matched, the sync length
#   rivals the chunk length (semi-collapse) and staging the remaining
#   walks wide would cost more memory bandwidth than it saves.
_STOP_ACTIVE = 24
_ABORT_ZERO_STEP = 512
_ABORT_FRACTION_STEP = 2048
_CHECK_EVERY = 32

# The stitch's serial tail stages at most this many states per array:
# ``num_symbols`` comes from the container, so an inflated count must
# run out of payload (``DecodeError``) before it sizes an allocation.
_TAIL_CHUNK = 1 << 16


def bit_windows(payload: np.ndarray) -> np.ndarray:
    """24-bit big-endian windows, one per byte offset of ``payload``.

    ``bit_windows(p)[i]`` holds bytes ``i, i+1, i+2`` (zero-padded past
    the end), so any ``nb <= 16``-bit field starting at bit position
    ``q`` is ``(win[q >> 3] >> (24 - (q & 7) - nb)) & ((1 << nb) - 1)``.

    Two guard windows past the last byte are included so a cursor
    parked exactly at the end of the stream can still be gathered (a
    frozen kernel lane reads but never uses them).
    """
    payload = np.asarray(payload, dtype=np.uint8)
    padded = np.zeros(len(payload) + 5, dtype=np.uint32)
    padded[: len(payload)] = payload
    return (
        (padded[:-3] << np.uint32(16))
        | (padded[1:-2] << np.uint32(8))
        | padded[2:-1]
    )


@dataclass
class SpecTrajectory:
    """Recorded trajectories of one speculative pass.

    ``traj_pos``/``traj_state`` are ``(cap, P)`` matrices: row ``i``
    holds every chunk's (bit position, state) *before* its ``i``-th
    decoded symbol; chunk ``k``'s column is valid for
    ``i < traj_len[k]``.  ``end_pos``/``end_state`` are the cursors
    after each chunk's last decoded symbol — the exact point a stitch
    continuation resumes from (the seed recomputed these with per-bit
    loops).
    """

    traj_pos: np.ndarray
    traj_state: np.ndarray
    traj_len: np.ndarray
    end_pos: np.ndarray
    end_state: np.ndarray
    win24: np.ndarray


def fused_speculative_pass(
    table: TansTable,
    payload: np.ndarray,
    bit_count: int,
    starts: np.ndarray,
    ends: np.ndarray,
    initial_state: int,
    total_symbols: int,
) -> SpecTrajectory:
    """Advance all ``P`` speculative chunks as one state vector.

    Chunk 0 starts from the true ``initial_state``; every other chunk
    starts from the canonical guess ``T`` and relies on
    self-synchronization.  Each active chunk decodes exactly one
    symbol per step, so a trajectory's step index is the global step
    index — trajectories are staged as full-width rows, with the
    all-chunks-active prefix run branch-free in planned safe runs and
    only the straggler tail stepped under ``where`` masks.
    """
    P = len(starts)
    T = table.table_size
    pk = table.packed_decode_entries()
    win24 = bit_windows(payload).astype(np.int64)

    # Step cap: symbols per chunk are bounded by the chunk's bit span
    # (plus slack for zero-bit symbols).  Same bound as the reference
    # pass so trajectories — and therefore stitch stats — stay
    # bit-identical.  Rows are ``np.empty``: untouched rows beyond the
    # longest trajectory never commit pages.
    span = int((ends - starts).max()) if P else 0
    cap = max(64, 4 * span + 64)
    traj_pos = np.empty((cap, P), dtype=np.int64)
    traj_state = np.empty((cap, P), dtype=np.int64)
    lens = np.zeros(P, dtype=np.int64)

    # Trailing chunk starts can lie past the stream end (the chunk
    # plan rounds the bit span up); those chunks never decode, and
    # advancing their cursors — even masked — would gather windows
    # out of range.  They are always a suffix of the plan, so the
    # kernel runs on the live prefix and parks the rest at the end.
    live = int(np.searchsorted(starts, bit_count, side="left"))
    pos = starts[:live].astype(np.int64).copy()
    state = np.full(live, T, dtype=np.int64)
    if live:
        state[0] = initial_state
    ends_live = ends[:live].astype(np.int64)
    # Chunk 0 must not outrun the true symbol count (trailing bits can
    # be padding).
    budget0 = min(cap, total_symbols)
    max_nb = max(1, int(table.dec_nb.max()))

    step = 0
    # Branch-free safe runs: while every chunk is strictly inside its
    # range, the minimum remaining bits over the widest symbol bound a
    # number of steps during which no lane can finish — no masks, no
    # ``any`` reductions, two fewer ``where`` passes per step.
    while step < cap and live:
        rem = ends_live - pos
        if int(rem.min()) <= 0:
            break
        safe = int((rem - 1).min()) // max_nb + 1
        safe = min(safe, cap - step, budget0 - step)
        if safe <= 0:
            break
        for _ in range(safe):
            traj_pos[step, :live] = pos
            traj_state[step, :live] = state
            g = pk[state - T]
            nb = (g >> _PK_NB_SHIFT) & 31
            sh = 24 - (pos & 7) - nb
            state = (g >> _PK_BASE_SHIFT) + (
                (win24[pos >> 3] >> sh) & (g & _PK_MASK)
            )
            pos = pos + nb
            step += 1
        lens[:live] = step

    # Straggler tail: lanes finish at different steps; a lane active at
    # step ``i`` was active at every earlier step, so its trajectory
    # index still equals the global step.
    sym_budget = np.full(live, cap, dtype=np.int64)
    if live:
        sym_budget[0] = budget0
    lens_live = lens[:live]
    while step < cap and live:
        active = (pos < ends_live) & (lens_live < sym_budget)
        if not active.any():
            break
        traj_pos[step, :live] = pos
        traj_state[step, :live] = state
        g = pk[state - T]
        nb = (g >> _PK_NB_SHIFT) & 31
        sh = 24 - (pos & 7) - nb
        val = (win24[pos >> 3] >> sh) & (g & _PK_MASK)
        state = np.where(active, (g >> _PK_BASE_SHIFT) + val, state)
        pos = pos + np.where(active, nb, 0)
        lens_live += active
        step += 1

    # Parked suffix lanes report an end cursor at the stream end with
    # the canonical guess state (they decoded nothing).
    end_pos = np.full(P, bit_count, dtype=np.int64)
    end_pos[:live] = pos
    end_state = np.full(P, T, dtype=np.int64)
    end_state[:live] = state
    return SpecTrajectory(
        traj_pos=traj_pos,
        traj_state=traj_state,
        traj_len=lens,
        end_pos=end_pos,
        end_state=end_state,
        win24=win24,
    )


@dataclass
class OvershootResult:
    """Wide synchronization search, one lane per chunk boundary.

    Lane ``k`` continues chunk ``k``'s walk past its range; columns of
    ``over_pos``/``over_state`` stage the (position, state) pairs of
    the first ``length[k]`` overshoot symbols.  ``matched`` lanes hit
    a recorded trajectory at ``match_pos`` (trajectory step
    ``match_step``, after ``match_oidx`` of their own overshoot
    symbols).  ``end_pos``/``end_state`` are the walk cursors after
    the last staged symbol — where a scalar continuation resumes if
    the wide search gave up.
    """

    over_pos: np.ndarray
    over_state: np.ndarray
    length: np.ndarray
    matched: np.ndarray
    match_pos: np.ndarray
    match_step: np.ndarray
    match_oidx: np.ndarray
    end_pos: np.ndarray
    end_state: np.ndarray
    aborted: bool


def _trajectory_probe_table(spec: SpecTrajectory, bit_count: int) -> np.ndarray:
    """Dense bitpos -> packed (step, state) over all recorded
    trajectories; -1 where nothing was recorded.  Duplicate positions
    (zero-bit symbols) keep the *last* recorded step, matching the
    reference stitch's dict construction.  Sixteen guard slots past
    the stream end let frozen cursors (parked up to one symbol's bits
    beyond it) probe without clamping."""
    ml = int(spec.traj_len.max())
    rec = np.full(bit_count + 17, -1, dtype=np.int64)
    if ml == 0:
        return rec
    valid = np.arange(ml, dtype=np.int64)[:, None] < spec.traj_len[None, :]
    packed = (
        np.arange(ml, dtype=np.int64)[:, None] << _REC_STATE_BITS
    ) | spec.traj_state[:ml]
    # Row-major flattening visits steps in increasing order, so numpy's
    # sequential fancy assignment leaves the last duplicate in place.
    rec[spec.traj_pos[:ml][valid]] = packed[valid]
    return rec


def fused_overshoot_pass(
    table: TansTable,
    spec: SpecTrajectory,
    bit_count: int,
    ends: np.ndarray,
    total_symbols: int,
) -> OvershootResult:
    """Run every boundary's synchronization search as one wide kernel.

    Lane ``k`` resumes from chunk ``k``'s end cursor and decodes
    forward, probing each position against the dense trajectory table
    *before* consuming it (reference ordering: a probe hit emits no
    overshoot symbol).  Lanes whose chunk walk was truncated by the
    step cap (cursor still inside their own range, where they would
    match their own trajectory) sit the search out and fall to the
    scalar walk.  Stop rules and their economics are documented at
    the ``_STOP_ACTIVE``/``_ABORT_*`` constants; a stopped search is
    never wrong, only smaller — the stitch scalar-walks whatever was
    not staged.
    """
    P = len(ends)
    T = table.table_size
    lanes = P - 1
    pk = table.packed_decode_entries()
    win24 = spec.win24
    rec = _trajectory_probe_table(spec, bit_count)

    span = int(ends[0]) if P else 0
    cap = min(max(64, 4 * span + 64), total_symbols + 1)
    over_pos = np.empty((cap, lanes), dtype=np.int64)
    over_state = np.empty((cap, lanes), dtype=np.int64)
    length = np.zeros(lanes, dtype=np.int64)
    matched = np.zeros(lanes, dtype=bool)
    match_pos = np.full(lanes, -1, dtype=np.int64)
    match_step = np.full(lanes, -1, dtype=np.int64)
    match_oidx = np.full(lanes, -1, dtype=np.int64)

    op = spec.end_pos[:lanes].copy()
    ox = spec.end_state[:lanes].copy()
    # Lanes whose chunk walk was cap-truncated (cursor short of their
    # range end, where they would self-match), parked lanes that never
    # decoded, and lanes already at/past the stream end (recorded
    # positions are all below it, so they can never match — and one
    # junk step would carry their cursor beyond the probe table's
    # guard slots) sit the search out.
    active = (
        (spec.end_pos[:lanes] >= ends[:lanes])
        & (spec.end_pos[:lanes] < bit_count)
        & (spec.traj_len[:lanes] > 0)
    )
    aborted = not active.any()

    for t in range(cap):
        # Probe: a miss reads -1, whose masked state (all ones) can
        # never equal a real state, so no validity test is needed.
        r = rec[op]
        hit = active & ((r & _REC_STATE_MASK) == ox)
        if hit.any():
            matched |= hit
            match_pos[hit] = op[hit]
            match_step[hit] = r[hit] >> _REC_STATE_BITS
            match_oidx[hit] = length[hit]
            active = active & ~hit
        if t % _CHECK_EVERY == 0:
            live = int(active.sum())
            if live == 0 or live < _STOP_ACTIVE:
                break
            if t >= _ABORT_ZERO_STEP and not matched.any():
                aborted = True
                break
            if (
                t >= _ABORT_FRACTION_STEP
                and int(matched.sum()) * 4 < lanes
            ):
                break
        over_pos[t] = op
        over_state[t] = ox
        g = pk[ox - T]
        nb = (g >> _PK_NB_SHIFT) & 31
        sh = 24 - (op & 7) - nb
        val = (win24[op >> 3] >> sh) & (g & _PK_MASK)
        ox = np.where(active, (g >> _PK_BASE_SHIFT) + val, ox)
        op = op + np.where(active, nb, 0)
        length += active
        # Freeze lanes that crossed the stream end before they probe
        # again: their cursor parks at most 16 bits past it, inside
        # the probe table's guard slots.
        active = active & (op < bit_count)

    return OvershootResult(
        over_pos=over_pos,
        over_state=over_state,
        length=length,
        matched=matched,
        match_pos=match_pos,
        match_step=match_step,
        match_oidx=match_oidx,
        end_pos=op,
        end_state=ox,
        aborted=aborted,
    )


def fused_stitch(
    table: TansTable,
    spec: SpecTrajectory,
    bit_count: int,
    num_symbols: int,
    initial_state: int,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stitch speculative trajectories into the true symbol stream.

    Chunk 0's output is correct from its true start state;
    inductively, the boundary walk continues from the last proven
    chunk's endpoint until its (position, state) cursor hits the next
    chunk's recorded trajectory, which proves that chunk's suffix.
    The walk itself was already done wide by
    :func:`fused_overshoot_pass`; here each boundary only *consumes*
    the staged records: ``searchsorted`` probes into the sorted
    ``traj_pos``/``over_pos`` columns replace the reference's
    per-position dict lookups, and proven suffixes and overshoot runs
    are emitted as array slices.  Boundaries the wide search gave up
    on (never-synchronizing chunks) fall back to the scalar walk.

    Returns ``(symbols, per-boundary overlaps, unsynced count)``.
    """
    P = len(starts)
    T = table.table_size
    N = num_symbols
    traj_pos = spec.traj_pos
    traj_state = spec.traj_state
    traj_len = spec.traj_len

    # State-trajectory pieces, symbol-gathered in one pass at the end.
    state_pieces: list[np.ndarray] = [traj_state[: int(traj_len[0]), 0]]
    emitted = int(traj_len[0])
    overlaps = np.zeros(max(P - 1, 0), dtype=np.int64)
    unsynced = 0

    # The wide search only pays for itself when enough boundaries run
    # concurrently (see _STOP_ACTIVE); small fleets scalar-walk their
    # few short overlaps directly.
    wide = None
    if P - 1 >= _STOP_ACTIVE and emitted < N:
        wide = fused_overshoot_pass(table, spec, bit_count, ends, N)
        if wide.aborted:
            wide = None

    # Scalar-walk state (only consulted when the wide search gave up);
    # the payload-sized list conversions are deferred until a scalar
    # walk actually runs — the common fully-wide-stitched decode never
    # pays them.
    scalar_tables: list[tuple] = []

    def _scalar_tables() -> tuple:
        if not scalar_tables:
            scalar_tables.append(
                (
                    table.dec_nb.tolist(),
                    table.dec_base.tolist(),
                    spec.win24.tolist(),
                )
            )
        return scalar_tables[0]

    x = int(spec.end_state[0]) if traj_len[0] else initial_state
    p = int(spec.end_pos[0]) if traj_len[0] else int(starts[0])
    scalar_mode = wide is None
    scalar_carry = 0  # overshoot symbols already consumed for boundary k

    lane = 0  # chain lane whose wide overshoot feeds the walk
    oi = 0  # next unconsumed overshoot step of that lane
    opos_col = ostate_col = None
    k = 1
    while k < P and emitted < N:
        if not scalar_mode:
            if opos_col is None:
                olen = int(wide.length[lane])
                opos_col = np.ascontiguousarray(wide.over_pos[:olen, lane])
                ostate_col = wide.over_state[:olen, lane]
            lane_matched = bool(wide.matched[lane])
            m_pos = int(wide.match_pos[lane])
            limit = int(ends[k])
            if lane_matched and m_pos < limit:
                extra = int(wide.match_oidx[lane]) - oi
                if emitted + extra >= N:
                    # Output budget exhausts before the match is
                    # reached: the reference stops probing and absorbs
                    # the boundary.
                    use = N - emitted
                    state_pieces.append(ostate_col[oi : oi + use])
                    overlaps[k - 1] = use
                    unsynced += 1
                    emitted = N
                    k += 1
                    continue
                state_pieces.append(ostate_col[oi : oi + extra])
                emitted += extra
                overlaps[k - 1] = extra
                mstep = int(wide.match_step[lane])
                L = int(traj_len[k])
                take = min(L - mstep, N - emitted)
                state_pieces.append(traj_state[mstep : mstep + take, k])
                emitted += take
                if mstep + take == L:
                    # Chunk fully proven: resume from its endpoint;
                    # its own wide overshoot carries the next
                    # boundary (the tail walk, if any, is scalar).
                    x = int(spec.end_state[k])
                    p = int(spec.end_pos[k])
                    if k < P - 1:
                        lane = k
                        oi = 0
                        opos_col = None
                    else:
                        scalar_mode = True
                k += 1
                continue
            # No match inside chunk k's range: count the overshoot
            # symbols that fell in it, then absorb the chunk.
            idx = int(np.searchsorted(opos_col, limit, side="left"))
            idx = max(idx, oi)
            n_k = idx - oi
            if emitted + n_k >= N:
                use = N - emitted
                state_pieces.append(ostate_col[oi : oi + use])
                overlaps[k - 1] = use
                unsynced += 1
                emitted = N
                k += 1
                continue
            covered = (
                idx < len(opos_col)
                or (lane_matched and m_pos >= limit)
                or int(wide.end_pos[lane]) >= limit
            )
            if covered:
                state_pieces.append(ostate_col[oi:idx])
                emitted += n_k
                overlaps[k - 1] = n_k
                unsynced += 1
                oi = idx
                k += 1
                continue
            # The wide walk gave up (step cap) before clearing chunk
            # k's range: consume what it staged and continue this
            # boundary with the scalar walk.
            state_pieces.append(ostate_col[oi:])
            scalar_carry = len(opos_col) - oi
            emitted += scalar_carry
            x = int(wide.end_state[lane])
            p = int(wide.end_pos[lane])
            scalar_mode = True
            # fall through to the scalar branch for this same k

        nb_t, base_t, win24 = _scalar_tables()
        L = int(traj_len[k])
        tp = np.ascontiguousarray(traj_pos[:L, k])
        tp_list = tp.tolist()
        ts_list = traj_state[:L, k].tolist()
        limit = int(ends[k])
        idx = int(np.searchsorted(tp, p))
        matched_step = None
        over_states: list[int] = []
        extra = scalar_carry  # wide-staged symbols already emitted
        scalar_carry = 0
        while emitted + len(over_states) < N:
            while idx < L and tp_list[idx] < p:
                idx += 1
            if idx < L and tp_list[idx] == p:
                # Zero-bit symbols can record one position twice; the
                # reference dict keeps the last write.
                j = idx
                while j + 1 < L and tp_list[j + 1] == p:
                    j += 1
                if ts_list[j] == x:
                    matched_step = j
                    break
            if p >= limit:
                break  # ran out of chunk k: it never synced
            e = x - T
            nb = nb_t[e]
            over_states.append(x)
            if nb:
                x = base_t[e] + (
                    (win24[p >> 3] >> (24 - (p & 7) - nb))
                    & ((1 << nb) - 1)
                )
                p += nb
            else:
                x = base_t[e]
            extra += 1

        state_pieces.append(np.asarray(over_states, dtype=np.int64))
        emitted += len(over_states)
        overlaps[k - 1] = extra
        if matched_step is not None:
            take = min(L - matched_step, N - emitted)
            state_pieces.append(
                traj_state[matched_step : matched_step + take, k]
            )
            emitted += take
            if matched_step + take == L:
                x = int(spec.end_state[k])
                p = int(spec.end_pos[k])
            elif take > 0:
                # Output budget cut the chunk short: resume from the
                # first unused trajectory entry.
                x = int(ts_list[matched_step + take])
                p = int(tp_list[matched_step + take])
            if wide is not None and k < P - 1:
                # Re-enter the wide records: the proven chunk's own
                # overshoot lane carries the next boundary.
                lane = k
                oi = 0
                opos_col = None
                scalar_mode = False
        else:
            unsynced += 1
        k += 1

    # Tail: if the last chunks were absorbed, finish serially.
    if emitted < N:
        if not scalar_mode:
            if opos_col is not None and oi < len(opos_col):
                # The staged overshoot continues past the last
                # boundary; consume it before walking.
                state_pieces.append(ostate_col[oi:])
                emitted += len(opos_col) - oi
            if emitted < N:
                x = int(wide.end_state[lane])
                p = int(wide.end_pos[lane])
        while emitted < N:
            nb_t, base_t, win24 = _scalar_tables()
            tail = np.empty(min(N - emitted, _TAIL_CHUNK), dtype=np.int64)
            for i in range(len(tail)):
                e = x - T
                nb = nb_t[e]
                tail[i] = x
                if nb:
                    if p + nb > bit_count:
                        raise DecodeError("tANS bitstream exhausted")
                    x = base_t[e] + (
                        (win24[p >> 3] >> (24 - (p & 7) - nb))
                        & ((1 << nb) - 1)
                    )
                    p += nb
                else:
                    x = base_t[e]
            state_pieces.append(tail)
            emitted += len(tail)

    states = np.concatenate(state_pieces)[:N]
    if len(states) != N:
        raise DecodeError(f"multians produced {len(states)} of {N} symbols")
    out = table.dec_sym[states - T]
    return out, overlaps, unsynced


def staged_single_decode(
    table: TansTable,
    payload: np.ndarray,
    bit_count: int,
    state: int,
    bitpos: int,
    num_symbols: int,
) -> tuple[np.ndarray, int, int]:
    """Serial single-stream decode as a staged-trajectory sweep.

    The state chain is inherently sequential, so the per-iteration
    work is cut to the dependency itself (table-entry lookup, window
    read, state update) staged into a trajectory list; the symbol
    gather — the seed loop's per-iteration array store — is one bulk
    ``dec_sym`` indexing op over the staged entries.
    """
    T = table.table_size
    sym_arr = table.dec_sym
    nb_t = table.dec_nb.tolist()
    base_t = table.dec_base.tolist()
    win24 = bit_windows(payload).tolist()

    entries: list[int] = []
    stage = entries.append
    x = int(state)
    p = int(bitpos)
    for _ in range(num_symbols):
        e = x - T
        stage(e)
        nb = nb_t[e]
        if nb:
            if p + nb > bit_count:
                raise DecodeError("tANS bitstream exhausted")
            x = base_t[e] + (
                (win24[p >> 3] >> (24 - (p & 7) - nb)) & ((1 << nb) - 1)
            )
            p += nb
        else:
            x = base_t[e]
    return sym_arr[np.array(entries, dtype=np.int64)], x, p


def measure_sync_trajectory(
    table: TansTable,
    payload: np.ndarray,
    bit_count: int,
    initial_state: int,
    window_symbols: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """True (bit position, state) trajectory of a stream prefix.

    Returns ``(positions, states, end_pos)`` for ``window_symbols``
    decoded symbols — the staged sweep of
    :func:`staged_single_decode`, keeping positions instead of
    symbols.  Feeds the vectorized sync-length sampler.
    """
    T = table.table_size
    nb_t = table.dec_nb.tolist()
    base_t = table.dec_base.tolist()
    win24 = bit_windows(payload).tolist()

    positions = np.empty(window_symbols, dtype=np.int64)
    states = np.empty(window_symbols, dtype=np.int64)
    x = int(initial_state)
    p = 0
    for i in range(window_symbols):
        positions[i] = p
        states[i] = x
        e = x - T
        nb = nb_t[e]
        if nb:
            x = base_t[e] + (
                (win24[p >> 3] >> (24 - (p & 7) - nb)) & ((1 << nb) - 1)
            )
            p += nb
        else:
            x = base_t[e]
    return positions, states, p
