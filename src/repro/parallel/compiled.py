"""Compiled kernels behind ``kernel="compiled"`` (DESIGN.md §19).

The fused kernels (:mod:`repro.parallel.fused`, ``fused_encode``,
:mod:`repro.tans.fused`) are numpy straight-line code: tens of numpy
dispatches per step, far from memory-bandwidth-bound.  This module
holds their compiled counterparts:

- the whole rANS decode walk of a task batch — activations, partial
  groups, commit ranges, renormalization reads, terminal drain —
  with every word read, output store and model-id read
  bounds-checked (:func:`rans_walk`);
- the rANS encode sweep and the tANS safe run, twins of the steady
  inner loops of ``fused_encode.run_blocks`` and
  ``fused_speculative_pass``.

They are C, compiled once into a shared library with the host C
compiler and driven through :mod:`ctypes` (foreign calls release the
GIL).  The library is cached under the system temp directory keyed by
a source hash, so later processes only pay a ``dlopen``.

When no C compiler is available :func:`kernel_available` is false,
the callers run their numpy loops, and :func:`effective_kernel`
resolves ``"compiled"`` to ``"numpy"`` with a one-time logged notice
— the knob surface keeps working everywhere, it just reports what
actually ran.

Bit-identity contract: on success paths the compiled code performs
the *same* arithmetic in the same order as the numpy kernels (uint64
wraparound, descending-lane renormalization reads, truncating output
stores), so the differential suites assert identical streams, split
events, outputs and work counters across kernels.  On error paths
(corrupt input) both raise a :class:`~repro.errors.DecodeError`;
intermediate buffer contents are then unobservable and may differ.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import threading

import numpy as np

log = logging.getLogger("repro.compiled")

#: kernel implementations selectable through every ``kernel=`` knob.
KERNELS = ("numpy", "compiled")

_ENV_TOOLCHAIN = "REPRO_COMPILED_TOOLCHAIN"  # auto|cc|none

_lock = threading.Lock()
_state: dict = {
    "toolchain": None,  # resolved lazily: "cc" | "none"
    "impl": None,  # dict of callables once the library is up
    "compile_events": 0,
    "warned_fallback": False,
}

# uint64 copies of narrow gather tables, keyed by id() of the source
# array; the source is kept alive in the value so ids cannot be
# recycled.  Bounded: one entry per live DecodeTables (per provider).
_U64_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_U64_CACHE_MAX = 64


# ---------------------------------------------------------------------------
# Toolchain detection and the compiled/numpy resolution.
# ---------------------------------------------------------------------------


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        for d in os.environ.get("PATH", "").split(os.pathsep):
            cand = os.path.join(d, name)
            if os.path.isfile(cand) and os.access(cand, os.X_OK):
                return cand
    return None


def _detect_toolchain() -> str:
    forced = os.environ.get(_ENV_TOOLCHAIN, "auto").lower()
    if forced in ("cc", "auto") and _find_cc() is not None:
        return "cc"
    return "none"


def toolchain() -> str:
    """The compiled toolchain in use: ``"cc"`` or ``"none"``
    (override with ``REPRO_COMPILED_TOOLCHAIN=auto|cc|none``)."""
    with _lock:
        if _state["toolchain"] is None:
            _state["toolchain"] = _detect_toolchain()
        return _state["toolchain"]


def kernel_available() -> bool:
    """Whether ``kernel="compiled"`` can actually run here."""
    return _impl() is not None


def effective_kernel(requested: str) -> str:
    """Resolve a requested kernel to the one that will run.

    ``"compiled"`` degrades to ``"numpy"`` (with a one-time logged
    notice) when no C compiler is available or the build failed.

    :raises ValueError: a kernel name outside :data:`KERNELS`.
    """
    if requested not in KERNELS:
        raise ValueError(
            f"unknown kernel {requested!r}; expected one of {KERNELS}"
        )
    if requested == "numpy":
        return "numpy"
    if _impl() is not None:
        return "compiled"
    with _lock:
        if not _state["warned_fallback"]:
            _state["warned_fallback"] = True
            log.warning(
                "compiled kernel requested but no C compiler is "
                "available on PATH; falling back to the numpy kernels"
            )
    return "numpy"


def compile_events() -> int:
    """Monotonic count of actual C-compiler invocations (cache hits
    do not count).  Benchmarks and the serve path assert this stays
    constant across timed regions after :func:`warm_up`."""
    with _lock:
        return _state["compile_events"]


def _count_compile() -> None:
    with _lock:
        _state["compile_events"] += 1


def reset_for_tests() -> None:
    """Drop all cached toolchain state (tests only: lets a test force
    re-detection under a different ``REPRO_COMPILED_TOOLCHAIN``)."""
    with _lock:
        _state["toolchain"] = None
        _state["impl"] = None
        _state["warned_fallback"] = False


# ---------------------------------------------------------------------------
# The C source.
# ---------------------------------------------------------------------------

#: ``recoil_rans_walk`` return codes (0 = success), mirroring the enum
#: in the C source; see :func:`rans_walk`.
WALK_READ, WALK_STORE, WALK_MODEL, WALK_LANE = 1, 2, 3, 4
WALK_DRAIN, WALK_CONSUMED, WALK_FINAL = 5, 6, 7

_C_SOURCE = r"""
#include <stdint.h>

enum { WALK_READ = 1, WALK_STORE, WALK_MODEL, WALK_LANE,
       WALK_DRAIN, WALK_CONSUMED, WALK_FINAL };

static inline int64_t floordiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;  /* b > 0 */
}

static inline void store(void *out, int64_t o, int64_t itemsize,
                         uint64_t v)
{
    switch (itemsize) {
    case 1: ((uint8_t *)out)[o] = (uint8_t)v; break;
    case 2: ((uint16_t *)out)[o] = (uint16_t)v; break;
    case 4: ((uint32_t *)out)[o] = (uint32_t)v; break;
    default: ((uint64_t *)out)[o] = v; break;
    }
}

/* The whole fused rANS decode walk (DESIGN.md §7/§19), one task after
   another: tasks share only the read-only word stream and disjoint
   output ranges, so each runs its own walk end to end with the exact
   per-iteration semantics of fused.py's generic loop.  Per task:
   install initial states, then per interleave group (descending)
   install due activations, renormalize the group's active lanes in
   descending lane order, decode them (Eq. 2), commit the symbols
   inside [commit_lo, commit_hi]; finally the terminal drain.  Every
   word read, output store and model-id read is bounds-checked.
   counters: [symbols decoded, words read, max task iterations,
   failing task, drain position]; returns 0 or a WALK_* error code. */
int64_t recoil_rans_walk(
    const uint16_t *words, int64_t W,
    const uint64_t *freq, const uint64_t *bias, const uint64_t *sym,
    uint64_t table_len, uint64_t slot_count, uint64_t slot_mask,
    const uint64_t *ids, int64_t n_ids,  /* ids NULL: static model */
    uint64_t shift, uint64_t rb, uint64_t lbound,
    void *out, int64_t n_out, int64_t itemsize,
    int64_t T, int64_t K, const int64_t *geom,
    const uint64_t *init, const uint8_t *has_init,
    const int64_t *act_ptr, const int64_t *act_iter,
    const int64_t *act_lane, const uint64_t *act_state,
    uint64_t *x, uint8_t *active, int64_t *counters)
{
    int64_t symbols = 0, words_read = 0, max_r = 0;
    int64_t err = 0, t = 0;
    for (; t < T; ++t) {
        const int64_t *g = geom + 8 * t;
        int64_t pos = g[0], cur = g[1];
        const int64_t lo = g[2], c_hi = g[3], c_lo = g[4], off = g[5];
        int64_t a = act_ptr[t];
        const int64_t a_end = act_ptr[t + 1];
        for (int64_t l = 0; l < K; ++l) {
            x[l] = init[K * t + l];
            active[l] = has_init[t];
        }
        int64_t r = 0;
        for (; cur >= lo; ++r) {
            for (; a < a_end && act_iter[a] <= r; ++a) {
                const int64_t ln = act_lane[a];
                if (ln < 0 || ln >= K) { err = WALK_LANE; goto fail; }
                x[ln] = act_state[a];
                active[ln] = 1;
            }
            const int64_t base = floordiv(cur - 1, K) * K;
            const int64_t sl = lo > base + 1 ? lo : base + 1;
            const int64_t la = sl - base - 1, lb = cur - base - 1;
            int64_t cnt = 0;
            for (int64_t l = lb; l >= la; --l) {
                if (active[l] && x[l] < lbound) {
                    const int64_t src = pos - cnt++;
                    if (src < 0 || src >= W) { err = WALK_READ; goto fail; }
                    x[l] = (x[l] << rb) | words[src];
                }
            }
            pos -= cnt;
            words_read += cnt;
            for (int64_t l = la; l <= lb; ++l) {
                if (!active[l])
                    continue;
                const uint64_t xv = x[l];
                uint64_t fl = xv & slot_mask;
                if (ids) {
                    int64_t gi = off + base + l;
                    if (gi >= n_ids) gi = n_ids - 1;
                    if (gi < 0) gi = 0;
                    if (gi >= n_ids) { err = WALK_MODEL; goto fail; }
                    fl += ids[gi] * slot_count;
                }
                if (fl >= table_len) { err = WALK_MODEL; goto fail; }
                x[l] = freq[fl] * (xv >> shift) + bias[fl];
                const int64_t li = base + l + 1;
                if (li >= c_lo && li <= c_hi) {
                    const int64_t o = off + li - 1;
                    if (o < 0 || o >= n_out) { err = WALK_STORE; goto fail; }
                    store(out, o, itemsize, sym[fl]);
                }
                ++symbols;
            }
            cur = sl - 1;
        }
        if (r > max_r)
            max_r = r;
        if (g[6]) {  /* terminal drain back to the initial state L */
            const int64_t term = g[7];
            for (int64_t l = K - 1; l >= 0; --l) {
                while (x[l] < lbound) {
                    if (pos <= term) { err = WALK_DRAIN; goto fail; }
                    if (pos < 0 || pos >= W) { err = WALK_READ; goto fail; }
                    x[l] = (x[l] << rb) | words[pos--];
                    ++words_read;
                }
            }
            if (pos != term) { counters[4] = pos; err = WALK_CONSUMED; goto fail; }
            for (int64_t l = 0; l < K; ++l)
                if (x[l] != lbound) { err = WALK_FINAL; goto fail; }
        }
    }
fail:
    counters[0] = symbols;
    counters[1] = words_read;
    counters[2] = max_r;
    counters[3] = t;
    return err;
}

/* Steady-phase rANS encode sweep (twin of run_blocks' zip loop):
   stage the pre-renormalization state trajectory X and the keep
   masks; word emission is reconstructed from them by the caller. */
void recoil_rans_encode_sweep(
    uint64_t *X, const uint64_t *bb, const uint64_t *fb,
    const uint64_t *cb, const uint64_t *db, uint8_t *need,
    uint64_t rb, int64_t bg, int64_t W)
{
    for (int64_t i = 0; i < bg; ++i) {
        const uint64_t *b = bb + i * W;
        const uint64_t *f = fb + i * W;
        const uint64_t *c = cb + i * W;
        const uint64_t *d = db + i * W;
        uint8_t *n = need + i * W;
        const uint64_t *xp = X + i * W;
        uint64_t *xn = X + (i + 1) * W;
        for (int64_t w = 0; w < W; ++w) {
            uint64_t x0 = xp[w];
            uint8_t keep = x0 < b[w];
            n[w] = keep;
            uint64_t xr = keep ? x0 : (x0 >> rb);
            uint64_t q = xr / f[w];
            xn[w] = xr + q * c[w] + d[w];
        }
    }
}

/* tANS speculative-pass safe run (twin of the branch-free inner loop
   of fused_speculative_pass).  Returns the new step index. */
int64_t recoil_tans_safe_run(
    int64_t *traj_pos, int64_t *traj_state, int64_t stride,
    int64_t *pos, int64_t *state,
    const int64_t *pk, int64_t table_size,
    const int64_t *win24,
    int64_t live, int64_t step, int64_t safe)
{
    for (int64_t s = 0; s < safe; ++s) {
        int64_t *tp = traj_pos + step * stride;
        int64_t *ts = traj_state + step * stride;
        for (int64_t k = 0; k < live; ++k) {
            int64_t p = pos[k];
            int64_t xx = state[k];
            tp[k] = p;
            ts[k] = xx;
            int64_t g = pk[xx - table_size];
            int64_t nb = (g >> 17) & 31;
            int64_t sh = 24 - (p & 7) - nb;
            state[k] = (g >> 22)
                + ((win24[p >> 3] >> sh) & (g & 0x1FFFF));
            pos[k] = p + nb;
        }
        step++;
    }
    return step;
}
"""


def _build_cc_lib():
    """Compile (or reuse) the shared library and wire up ctypes."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"librepro-{digest}.so")
    if not os.path.exists(so_path):
        compiler = _find_cc()
        if compiler is None:
            return None
        os.makedirs(cache_dir, exist_ok=True)
        src_path = os.path.join(cache_dir, f"repro-{digest}.c")
        tmp_so = so_path + f".tmp.{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_so,
                 src_path],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        except (subprocess.SubprocessError, OSError) as exc:
            log.warning("C kernel build failed: %s", exc)
            return None
        _count_compile()
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        log.warning("C kernel load failed: %s", exc)
        return None

    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    u64 = ctypes.c_uint64
    lib.recoil_rans_walk.restype = i64
    lib.recoil_rans_walk.argtypes = [
        p, i64, p, p, p, u64, u64, u64, p, i64, u64, u64, u64,
        p, i64, i64, i64, i64, p, p, p, p, p, p, p, p, p, p,
    ]
    lib.recoil_rans_encode_sweep.restype = None
    lib.recoil_rans_encode_sweep.argtypes = [
        p, p, p, p, p, p, u64, i64, i64,
    ]
    lib.recoil_tans_safe_run.restype = i64
    lib.recoil_tans_safe_run.argtypes = [
        p, p, i64, p, p, p, i64, p, i64, i64, i64,
    ]

    def encode_sweep(X, bb, fb, cb, db, need, rb, bg, W):
        lib.recoil_rans_encode_sweep(
            X.ctypes.data, bb.ctypes.data, fb.ctypes.data,
            cb.ctypes.data, db.ctypes.data, need.ctypes.data,
            rb, bg, W,
        )

    def tans_safe(traj_pos, traj_state, pos, state, pk,
                  table_size, win24, live, step, safe):
        return int(lib.recoil_tans_safe_run(
            traj_pos.ctypes.data, traj_state.ctypes.data,
            traj_pos.shape[1],
            pos.ctypes.data, state.ctypes.data,
            pk.ctypes.data, table_size, win24.ctypes.data,
            live, step, safe,
        ))

    return {
        "rans_walk": lib.recoil_rans_walk,
        "encode_sweep": encode_sweep,
        "tans_safe": tans_safe,
    }


def _impl() -> dict | None:
    """The kernel table (built once), or None without a toolchain."""
    with _lock:
        impl = _state["impl"]
        if impl is not None:
            return impl or None  # {} marks a failed build
        if _state["toolchain"] is None:
            _state["toolchain"] = _detect_toolchain()
        tc = _state["toolchain"]
    # Build outside the lock: compilation can take a while, and
    # _build_cc_lib only touches process-wide caches idempotently.
    impl = _build_cc_lib() if tc == "cc" else None
    with _lock:
        if _state["impl"] is None:
            _state["impl"] = impl if impl is not None else {}
        return _state["impl"] or None


def warm_up() -> str:
    """Build/load every compiled kernel and run each once on tiny
    inputs, so no compilation or ``dlopen`` lands inside a timed
    region.  Returns the kernel that will actually run
    (``"compiled"`` or ``"numpy"``).  Idempotent and cheap after the
    first call."""
    impl = _impl()
    if impl is None:
        return "numpy"
    # rANS walk: 1 task x 1 lane decoding one symbol from an
    # above-threshold initial state (no renormalization read fires),
    # once per model kind.
    words = np.zeros(1, dtype=np.uint16)
    tab = np.ones(2, dtype=np.uint64)
    geom = np.array([[0, 1, 1, 1, 1, 0, 0, -1]], dtype=np.int64)
    for ids in (None, np.zeros(1, dtype=np.uint64)):
        rans_walk(
            words, tab, tab, tab, 2, 1, ids, 1, 16, 1 << 16,
            np.zeros(1, dtype=np.uint8), 1, geom,
            np.full((1, 1), 1 << 16, dtype=np.uint64),
            np.ones(1, dtype=np.uint8), np.zeros(2, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
        )
    X = np.full((2, 1), 1 << 16, dtype=np.uint64)
    ops = np.ones((1, 1), dtype=np.uint64)
    need = np.zeros((1, 1), dtype=bool)
    impl["encode_sweep"](X, ops, ops, ops, ops, need, 16, 1, 1)
    tp = np.zeros((1, 1), dtype=np.int64)
    ts = np.zeros((1, 1), dtype=np.int64)
    pz = np.zeros(1, dtype=np.int64)
    sz = np.zeros(1, dtype=np.int64)
    pk = np.zeros(1, dtype=np.int64)
    win = np.zeros(4, dtype=np.int64)
    impl["tans_safe"](tp, ts, pz, sz, pk, 0, win, 1, 0, 1)
    return "compiled"


# ---------------------------------------------------------------------------
# Kernel entry points.
# ---------------------------------------------------------------------------


def _u64_view(arr: np.ndarray) -> np.ndarray:
    """A cached C-contiguous uint64 copy of a gather table."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.uint64:
        return arr
    # Key on the owning buffer (kept alive in the value, so the id
    # cannot be recycled) plus the view geometry.
    owner = arr.base if arr.base is not None else arr
    key = (id(owner), arr.shape, str(arr.dtype), arr.ctypes.data)
    hit = _U64_CACHE.get(key)
    if hit is not None:
        return hit[1]
    if len(_U64_CACHE) >= _U64_CACHE_MAX:
        _U64_CACHE.clear()
    conv = arr.astype(np.uint64)
    _U64_CACHE[key] = (arr, conv)
    return conv


def walk_output_supported(out: np.ndarray) -> bool:
    """Whether :func:`rans_walk` can store into ``out`` directly: a
    C-contiguous, aligned, native-endian integer array."""
    return bool(
        out.dtype.kind in "ui"
        and out.dtype.isnative
        and out.dtype.itemsize in (1, 2, 4, 8)
        and out.flags["C_CONTIGUOUS"]
        and out.flags["ALIGNED"]
    )


def rans_walk(
    words: np.ndarray,
    freq: np.ndarray,
    bias: np.ndarray,
    sym: np.ndarray,
    slot_count: int,
    slot_mask: int,
    ids: np.ndarray | None,
    quant_bits: int,
    renorm_bits: int,
    lbound: int,
    out: np.ndarray,
    lanes: int,
    geom: np.ndarray,
    init: np.ndarray,
    has_init: np.ndarray,
    act_ptr: np.ndarray,
    act_iter: np.ndarray,
    act_lane: np.ndarray,
    act_state: np.ndarray,
) -> np.ndarray:
    """Run the whole decode walk of a task batch in one C call.

    ``geom`` is the ``(T, 8)`` int64 task matrix (columns as in
    :class:`repro.parallel.fused.TaskColumns`); ``init``/``has_init``
    the ``(T, K)`` initial states and which rows carry them;
    ``act_*`` the activations, grouped per task by ``act_ptr``
    (``(T+1,)`` offsets) and ordered by iteration within a task.
    ``ids`` is the dense model-id array (``None`` for a static
    model); ``words`` a uint16 stream and ``out`` an array passing
    :func:`walk_output_supported`.

    :returns: int64 counters ``[symbols decoded, words read, max task
        iterations]``.
    :raises DecodeError: a read outside the stream, an output store
        outside ``out``, a model id outside the table, an activation
        lane outside ``[0, K)``, or a failed terminal drain.
    :raises ValueError: arrays whose dtype, layout or shape the C
        code would misread (a caller bug, checked before any pointer
        is passed).
    """
    impl = _impl()
    if impl is None:
        raise RuntimeError("compiled kernel unavailable")
    sym = _u64_view(sym)
    T = len(geom)
    typed = [
        (words, np.uint16), (freq, np.uint64), (bias, np.uint64),
        (sym, np.uint64), (geom, np.int64), (init, np.uint64),
        (has_init, np.uint8), (act_ptr, np.int64), (act_iter, np.int64),
        (act_lane, np.int64), (act_state, np.uint64),
    ] + ([] if ids is None else [(ids, np.uint64)])
    if not (
        all(
            a.dtype == dt and a.flags["C_CONTIGUOUS"] and a.flags["ALIGNED"]
            for a, dt in typed
        )
        and walk_output_supported(out)
        and lanes >= 1
        and geom.shape == (T, 8)
        and init.shape == (T, lanes)
        and has_init.shape == (T,)
        and act_ptr.shape == (T + 1,)
        and len(freq) == len(bias) == len(sym)
        and act_ptr[0] == 0
        and act_ptr[-1] == len(act_iter) == len(act_lane) == len(act_state)
        and bool(np.all(act_ptr[1:] >= act_ptr[:-1]))
    ):
        raise ValueError("rans_walk arguments violate the kernel's layout")
    n_ids = 0 if ids is None else len(ids)
    x = np.empty(lanes, dtype=np.uint64)
    active = np.empty(lanes, dtype=np.uint8)
    counters = np.zeros(5, dtype=np.int64)
    err = impl["rans_walk"](
        words.ctypes.data, len(words),
        freq.ctypes.data, bias.ctypes.data, sym.ctypes.data,
        len(freq), slot_count, slot_mask,
        None if ids is None else ids.ctypes.data, n_ids,
        quant_bits, renorm_bits, lbound,
        out.ctypes.data, len(out), out.dtype.itemsize,
        len(geom), lanes, geom.ctypes.data,
        init.ctypes.data, has_init.ctypes.data,
        act_ptr.ctypes.data, act_iter.ctypes.data,
        act_lane.ctypes.data, act_state.ctypes.data,
        x.ctypes.data, active.ctypes.data, counters.ctypes.data,
    )
    if err:
        from repro.errors import DecodeError

        t = int(counters[3])
        raise DecodeError(f"task {t}: " + {
            WALK_READ: "stream read out of range during "
                       "renormalization (corrupt metadata or "
                       "truncated payload)",
            WALK_STORE: f"output position outside the {len(out)}-symbol "
                        f"output",
            WALK_MODEL: "model id outside the provider's decode tables",
            WALK_LANE: f"activation lane outside [0, {lanes})",
            WALK_DRAIN: "stream exhausted in terminal drain",
            WALK_CONSUMED: f"stream region not fully consumed (pos "
                           f"{int(counters[4])}, expected "
                           f"{int(geom[t, 7])})",
            WALK_FINAL: "lanes did not return to the initial state L",
        }[err])
    return counters[:3]


def encode_sweep(
    X: np.ndarray,
    bb: np.ndarray,
    fb: np.ndarray,
    cb: np.ndarray,
    db: np.ndarray,
    need: np.ndarray,
    renorm_bits: int,
) -> bool:
    """Run one staged encode block compiled (twin of the sequential
    sweep in ``fused_encode.run_blocks``).  ``X[0]`` must hold the
    incoming states; on success ``X[1:]`` and ``need`` are filled."""
    impl = _impl()
    if impl is None:
        return False
    bg, W = need.shape
    if not (
        X.flags["C_CONTIGUOUS"]
        and need.flags["C_CONTIGUOUS"]
        and bb.flags["C_CONTIGUOUS"]
        and fb.flags["C_CONTIGUOUS"]
        and cb.flags["C_CONTIGUOUS"]
        and db.flags["C_CONTIGUOUS"]
    ):
        return False
    impl["encode_sweep"](X, bb, fb, cb, db, need, renorm_bits, bg, W)
    return True


def tans_safe_run(
    traj_pos: np.ndarray,
    traj_state: np.ndarray,
    pos: np.ndarray,
    state: np.ndarray,
    pk: np.ndarray,
    table_size: int,
    win24: np.ndarray,
    step: int,
    safe: int,
) -> int | None:
    """Run ``safe`` branch-free speculative steps compiled (twin of
    the inner loop of ``fused_speculative_pass``).  Returns the new
    step index, or None when the caller must run the numpy loop."""
    impl = _impl()
    if impl is None:
        return None
    if not (
        traj_pos.flags["C_CONTIGUOUS"]
        and traj_state.flags["C_CONTIGUOUS"]
        and pos.flags["C_CONTIGUOUS"]
        and state.flags["C_CONTIGUOUS"]
        and pk.flags["C_CONTIGUOUS"]
        and win24.flags["C_CONTIGUOUS"]
    ):
        return None
    return impl["tans_safe"](
        traj_pos, traj_state, pos, state, pk,
        table_size, win24, len(pos), step, safe,
    )
