"""Compiled kernels, chosen by host detection (DESIGN.md §19).

The fused kernels (:mod:`repro.parallel.fused`, ``fused_encode``) are
numpy straight-line code: tens of numpy dispatches per step, far from
memory-bandwidth-bound.  This module holds their compiled
counterparts:

- the whole rANS decode walk of a task batch — activations, partial
  groups, commit ranges, renormalization reads, terminal drain —
  with every word read, output store and model-id read
  bounds-checked (:func:`rans_walk`); on an AVX2 host its full
  interleave groups run a SIMD body with the same arithmetic,
  chosen at run time in C (:func:`avx2_host`, DESIGN.md §19);
- the rANS encode sweep, twin of the sequential loop over each
  staged block in ``fused_encode.fused_encode_run``
  (:func:`encode_sweep`).

They are C, compiled once into a shared library with the host C
compiler and driven through :mod:`ctypes` (foreign calls release the
GIL).  The library is cached under the system temp directory keyed by
a source hash, so later processes only pay a ``dlopen``.

No caller picks a kernel: every decode and encode runs the C code
when :func:`kernel_available` is true and the numpy loops when it is
not, with a one-time logged notice.  ``REPRO_COMPILED_TOOLCHAIN=none``
makes a host with a compiler act as one without (the operator's way
to force numpy, and how the tests and benchmarks reach the numpy
path); :func:`reset_for_tests` re-runs detection after it changes.

Bit-identity contract: on success paths the compiled code performs
the *same* arithmetic in the same order as the numpy kernels (uint64
wraparound, descending-lane renormalization reads, truncating output
stores), so the differential suites assert identical streams, split
events, outputs and work counters on both kinds of host.  On error
paths (corrupt input) both raise a :class:`~repro.errors.DecodeError`;
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

_ENV_TOOLCHAIN = "REPRO_COMPILED_TOOLCHAIN"  # auto|none

_lock = threading.Lock()
_state: dict = {
    "toolchain": None,  # resolved lazily: "cc" | "none"
    "impl": None,  # dict of callables once the library is up
    "compile_events": 0,
}


# ---------------------------------------------------------------------------
# Toolchain detection.
# ---------------------------------------------------------------------------


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        for d in os.environ.get("PATH", "").split(os.pathsep):
            cand = os.path.join(d, name)
            if os.path.isfile(cand) and os.access(cand, os.X_OK):
                return cand
    return None


def _requested_toolchain() -> str:
    return os.environ.get(_ENV_TOOLCHAIN, "auto").lower()


def _detect_toolchain() -> str:
    requested = _requested_toolchain()
    if requested == "none":
        return "none"
    if requested != "auto":
        log.warning(
            "%s=%r is neither 'auto' nor 'none'; detecting the C "
            "compiler as for 'auto'", _ENV_TOOLCHAIN, requested,
        )
    return "cc" if _find_cc() is not None else "none"


def toolchain() -> str:
    """The compiled toolchain in use: ``"cc"`` or ``"none"``
    (``REPRO_COMPILED_TOOLCHAIN=none`` forces ``"none"``; unset or
    ``auto`` detects)."""
    with _lock:
        if _state["toolchain"] is None:
            _state["toolchain"] = _detect_toolchain()
        return _state["toolchain"]


def kernel_available() -> bool:
    """Whether the compiled kernels run on this host (else every
    caller runs its numpy loop)."""
    return _impl() is not None


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
    """Drop all cached toolchain state, so the next kernel call
    re-detects under the current ``REPRO_COMPILED_TOOLCHAIN`` (how the
    tests and the benchmarks' numpy columns act as a host without a
    compiler)."""
    with _lock:
        _state["toolchain"] = None
        _state["impl"] = None


# ---------------------------------------------------------------------------
# The C source.
# ---------------------------------------------------------------------------

#: ``recoil_rans_walk`` return codes (0 = success), mirroring the enum
#: in the C source; see :func:`rans_walk`.
WALK_READ, WALK_STORE, WALK_MODEL, WALK_LANE = 1, 2, 3, 4
WALK_DRAIN, WALK_CONSUMED, WALK_FINAL = 5, 6, 7

_C_SOURCE = r"""
#include <stdint.h>
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define AVX2_BODY 1
#else
#define AVX2_BODY 0
#endif

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

/* Full groups (DESIGN.md §19): the groups of 32 lanes, from the one
   whose top index is cur downwards, that lie inside the walk range,
   the commit range and the output, checked once for the whole
   stretch; 0 when the group at cur is not one.  The caller checks the
   rest of the predicate: every lane active, no activation due, every
   state below 2^32. */
static int64_t full_groups(int64_t cur, int64_t lo, int64_t c_hi,
                           int64_t c_lo, int64_t off, int64_t n_out)
{
    if (cur < 32 || cur % 32 != 0 || cur > c_hi)
        return 0;
    const int64_t lo_lim = lo > c_lo ? lo : c_lo;
    if (lo_lim < 1 || lo_lim > cur - 31)
        return 0;
    const int64_t b_lo = (lo_lim + 30) / 32 * 32;  /* lowest group base */
    if (off < -b_lo || off > n_out - cur)
        return 0;
    return (cur - b_lo) / 32;
}

#if AVX2_BODY
/* route[m][j]: the word renormalizing lane j of an 8-lane vector takes
   from an 8-word load ending at pos, when mask m marks the lanes that
   renormalize: lanes read downwards from pos, top lane first, so lane
   j reads the word 7 - popcount(m >> (j + 1)).  The permuted load of
   F. Giesen, "Interleaved entropy coders" (arXiv:1402.3392). */
#define PC8(m) (((m) & 1) + ((m) >> 1 & 1) + ((m) >> 2 & 1) \
                + ((m) >> 3 & 1) + ((m) >> 4 & 1) + ((m) >> 5 & 1) \
                + ((m) >> 6 & 1) + ((m) >> 7 & 1))
#define ROUTE(m) { 7 - PC8((m) >> 1), 7 - PC8((m) >> 2), \
                   7 - PC8((m) >> 3), 7 - PC8((m) >> 4), \
                   7 - PC8((m) >> 5), 7 - PC8((m) >> 6), \
                   7 - PC8((m) >> 7), 7 }
#define ROUTE4(m) ROUTE(m), ROUTE((m) + 1), ROUTE((m) + 2), ROUTE((m) + 3)
#define ROUTE16(m) ROUTE4(m), ROUTE4((m) + 4), ROUTE4((m) + 8), \
                   ROUTE4((m) + 12)
#define ROUTE64(m) ROUTE16(m), ROUTE16((m) + 16), ROUTE16((m) + 32), \
                   ROUTE16((m) + 48)
static const int32_t route[256][8] __attribute__((aligned(32))) = {
    ROUTE64(0), ROUTE64(64), ROUTE64(128), ROUTE64(192)
};

/* The SIMD body: up to `groups` full groups of 32 lanes from the one
   whose 32 output bytes start at out, each walked with the scalar
   body's arithmetic.  The states are four vectors of eight uint32
   lanes; packed[slot] is freq | bias << 12 | sym << 24 with
   freq <= 2^shift and bias < freq, so every state stays below 2^32
   and 32-bit products are exact.  Stops before a group with fewer
   than 32 words at or below *pos (every word load is then inside
   the stream); returns the groups walked. */
__attribute__((target("avx2")))
static int64_t walk_full_groups_avx2(
    const uint16_t *words, const uint32_t *packed, uint64_t shift,
    uint64_t slot_mask, uint8_t *out, uint64_t *x, int64_t *pos,
    int64_t groups)
{
    uint32_t lanes[32];
    __m256i v[4], sym[4];
    for (int l = 0; l < 32; ++l)
        lanes[l] = (uint32_t)x[l];
    for (int k = 0; k < 4; ++k)
        v[k] = _mm256_loadu_si256((const __m256i *)(lanes + 8 * k));
    const __m256i mask = _mm256_set1_epi32((int)slot_mask);
    const __m256i low12 = _mm256_set1_epi32(0xFFF);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const __m128i n = _mm_cvtsi32_si128((int)shift);
    int64_t p = *pos, g = 0;
    for (; g < groups && p >= 31; ++g) {
        for (int k = 3; k >= 0; --k) {
            const __m256i need = _mm256_cmpeq_epi32(
                _mm256_srli_epi32(v[k], 16), zero);
            const int m = _mm256_movemask_ps(_mm256_castsi256_ps(need));
            const __m256i w = _mm256_permutevar8x32_epi32(
                _mm256_cvtepu16_epi32(
                    _mm_loadu_si128((const __m128i *)(words + p - 7))),
                _mm256_load_si256((const __m256i *)route[m]));
            v[k] = _mm256_blendv_epi8(
                v[k], _mm256_or_si256(_mm256_slli_epi32(v[k], 16), w),
                need);
            p -= __builtin_popcount((unsigned)m);
            const __m256i e = _mm256_i32gather_epi32(
                (const int *)packed, _mm256_and_si256(v[k], mask), 4);
            v[k] = _mm256_add_epi32(
                _mm256_mullo_epi32(_mm256_and_si256(e, low12),
                                   _mm256_srl_epi32(v[k], n)),
                _mm256_and_si256(_mm256_srli_epi32(e, 12), low12));
            sym[k] = _mm256_srli_epi32(e, 24);
        }
        const __m256i bytes = _mm256_packus_epi16(
            _mm256_packus_epi32(sym[0], sym[1]),
            _mm256_packus_epi32(sym[2], sym[3]));
        _mm256_storeu_si256((__m256i *)(out - 32 * g),
                            _mm256_permutevar8x32_epi32(bytes, order));
    }
    for (int k = 0; k < 4; ++k)
        _mm256_storeu_si256((__m256i *)(lanes + 8 * k), v[k]);
    for (int l = 0; l < 32; ++l)
        x[l] = lanes[l];
    *pos = p;
    return g;
}

int64_t recoil_avx2_host(void)
{
    return __builtin_cpu_supports("avx2");
}
#else
static int64_t walk_full_groups_avx2(
    const uint16_t *words, const uint32_t *packed, uint64_t shift,
    uint64_t slot_mask, uint8_t *out, uint64_t *x, int64_t *pos,
    int64_t groups)
{
    (void)words; (void)packed; (void)shift; (void)slot_mask;
    (void)out; (void)x; (void)pos; (void)groups;
    return 0;
}

int64_t recoil_avx2_host(void)
{
    return 0;
}
#endif

/* The whole fused rANS decode walk (DESIGN.md §7/§19), one task after
   another: tasks share only the read-only word stream and disjoint
   output ranges, so each runs its own walk end to end with the exact
   per-iteration semantics of fused.py's generic loop.  Per task:
   install initial states, then per interleave group (descending)
   install due activations, renormalize the group's active lanes in
   descending lane order, decode them (Eq. 2), commit the symbols
   inside [commit_lo, commit_hi]; finally the terminal drain.  Every
   word read, output store and model-id read is bounds-checked; a
   stretch of full groups runs the SIMD body instead, in the cases
   `simd` lists (packed NULL: never).
   counters: [symbols decoded, words read, max task iterations,
   SIMD groups, failing task, drain position]; returns 0 or a WALK_*
   error code. */
int64_t recoil_rans_walk(
    const uint16_t *words, int64_t W,
    const uint64_t *freq, const uint64_t *bias, const uint64_t *sym,
    uint64_t table_len, uint64_t slot_count, uint64_t slot_mask,
    const uint32_t *packed, uint64_t packed_len,
    const uint64_t *ids, int64_t n_ids,  /* ids NULL: static model */
    uint64_t shift, uint64_t rb, uint64_t lbound,
    void *out, int64_t n_out, int64_t itemsize,
    int64_t T, int64_t K, const int64_t *geom,
    const uint64_t *init, const uint8_t *has_init,
    const int64_t *act_ptr, const int64_t *act_iter,
    const int64_t *act_lane, const uint64_t *act_state,
    uint64_t *x, uint8_t *active, int64_t *counters)
{
    /* The SIMD body's cases (DESIGN.md §19): an AVX2 host, a packed
       table covering every slot, K = 32, a static model, uint8 output
       and the Table 3 renormalization (b = 16, L = 2^16). */
    const int simd = packed != 0 && slot_mask < packed_len
        && packed_len <= ((uint64_t)1 << 16) && shift < 32 && K == 32
        && ids == 0 && itemsize == 1 && rb == 16
        && lbound == ((uint64_t)1 << 16) && recoil_avx2_host();
    int64_t symbols = 0, words_read = 0, max_r = 0, simd_groups = 0;
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
            if (simd && a == a_end && pos < W) {
                int64_t n = full_groups(cur, lo, c_hi, c_lo, off, n_out);
                for (int64_t l = 0; n && l < K; ++l)
                    if (!active[l] || x[l] >> 32)
                        n = 0;
                if (n) {
                    const int64_t pos0 = pos;
                    n = walk_full_groups_avx2(
                        words, packed, shift, slot_mask,
                        (uint8_t *)out + (off + cur - 32), x, &pos, n);
                    words_read += pos0 - pos;
                    symbols += 32 * n;
                    simd_groups += n;
                    cur -= 32 * n;
                    if (n) {
                        r += n - 1;  /* the loop's ++r counts the last */
                        continue;
                    }
                }
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
            if (pos != term) {
                counters[5] = pos;
                err = WALK_CONSUMED;
                goto fail;
            }
            for (int64_t l = 0; l < K; ++l)
                if (x[l] != lbound) { err = WALK_FINAL; goto fail; }
        }
    }
fail:
    counters[0] = symbols;
    counters[1] = words_read;
    counters[2] = max_r;
    counters[3] = simd_groups;
    counters[4] = t;
    return err;
}

/* rANS encode sweep over one staged block (twin of the numpy loop
   in fused_encode_run): stage the pre-renormalization state
   trajectory X and the keep masks; word emission is reconstructed
   from them by the caller. */
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
"""


def kernel_path() -> str:
    """Where the kernel library for this source lives: the per-user
    cache under the system temp directory, keyed by the source hash.
    A library already there is loaded as is (how
    ``tools/sanitize_kernels.py`` plants an instrumented build)."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}",
        f"librepro-{digest}.so",
    )


def _build_cc_lib():
    """Compile (or reuse) the shared library and wire up ctypes."""
    so_path = kernel_path()
    if not os.path.exists(so_path):
        compiler = _find_cc()
        if compiler is None:
            return None
        os.makedirs(os.path.dirname(so_path), exist_ok=True)
        src_path = os.path.splitext(so_path)[0] + ".c"
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
        p, i64, p, p, p, u64, u64, u64, p, u64, p, i64, u64, u64, u64,
        p, i64, i64, i64, i64, p, p, p, p, p, p, p, p, p, p,
    ]
    lib.recoil_avx2_host.restype = i64
    lib.recoil_avx2_host.argtypes = []
    lib.recoil_rans_encode_sweep.restype = None
    lib.recoil_rans_encode_sweep.argtypes = [
        p, p, p, p, p, p, u64, i64, i64,
    ]

    def encode_sweep(X, bb, fb, cb, db, need, rb, bg, W):
        lib.recoil_rans_encode_sweep(
            X.ctypes.data, bb.ctypes.data, fb.ctypes.data,
            cb.ctypes.data, db.ctypes.data, need.ctypes.data,
            rb, bg, W,
        )

    return {
        "rans_walk": lib.recoil_rans_walk,
        "avx2_host": bool(lib.recoil_avx2_host()),
        "encode_sweep": encode_sweep,
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
            # One notice per detection; a host told to act without a
            # compiler (REPRO_COMPILED_TOOLCHAIN=none) gets none.
            if impl is None and _requested_toolchain() != "none":
                log.warning(
                    "no working C compiler on PATH; running the numpy "
                    "kernels"
                )
        return _state["impl"] or None


def avx2_host() -> bool:
    """Whether this host's C walk runs full interleave groups on the
    AVX2 body (DESIGN.md §19); False without the compiled kernel."""
    impl = _impl()
    return impl is not None and impl["avx2_host"]


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
    return "compiled"


# ---------------------------------------------------------------------------
# Kernel entry points.
# ---------------------------------------------------------------------------


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
    packed: np.ndarray | None = None,
) -> np.ndarray:
    """Run the whole decode walk of a task batch in one C call.

    ``geom`` is the ``(T, 8)`` int64 task matrix (columns as in
    :class:`repro.parallel.fused.TaskColumns`); ``init``/``has_init``
    the ``(T, K)`` initial states and which rows carry them;
    ``act_*`` the activations, grouped per task by ``act_ptr``
    (``(T+1,)`` offsets) and ordered by iteration within a task.
    ``ids`` is the dense model-id array (``None`` for a static
    model); ``words`` a uint16 stream and ``out`` an array passing
    :func:`walk_output_supported`.  ``packed`` is
    :attr:`~repro.rans.adaptive.DecodeTables.packed` (its first row):
    with it, full interleave groups run the SIMD body on an AVX2 host
    in the cases DESIGN.md §19 lists; ``None`` runs every group on the
    scalar body.  Both give the same output and counters.

    :returns: int64 counters ``[symbols decoded, words read, max task
        iterations, groups on the SIMD body]``.
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
    T = len(geom)
    typed = [
        (words, np.uint16), (freq, np.uint64), (bias, np.uint64),
        (sym, np.uint64), (geom, np.int64), (init, np.uint64),
        (has_init, np.uint8), (act_ptr, np.int64), (act_iter, np.int64),
        (act_lane, np.int64), (act_state, np.uint64),
    ] + ([] if ids is None else [(ids, np.uint64)]) + (
        [] if packed is None else [(packed, np.uint32)]
    )
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
        and (packed is None or packed.ndim == 1)
        and act_ptr[0] == 0
        and act_ptr[-1] == len(act_iter) == len(act_lane) == len(act_state)
        and bool(np.all(act_ptr[1:] >= act_ptr[:-1]))
    ):
        raise ValueError("rans_walk arguments violate the kernel's layout")
    n_ids = 0 if ids is None else len(ids)
    x = np.empty(lanes, dtype=np.uint64)
    active = np.empty(lanes, dtype=np.uint8)
    counters = np.zeros(6, dtype=np.int64)
    err = impl["rans_walk"](
        words.ctypes.data, len(words),
        freq.ctypes.data, bias.ctypes.data, sym.ctypes.data,
        len(freq), slot_count, slot_mask,
        None if packed is None else packed.ctypes.data,
        0 if packed is None else len(packed),
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

        t = int(counters[4])
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
                           f"{int(counters[5])}, expected "
                           f"{int(geom[t, 7])})",
            WALK_FINAL: "lanes did not return to the initial state L",
        }[err])
    return counters[:4]


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
    sweep in ``fused_encode.fused_encode_run``).  ``X[0]`` must hold
    the incoming states; on success ``X[1:]`` and ``need`` are
    filled."""
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
