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
- the whole rANS encode of a task batch — per-symbol table
  gathers, renormalization, Eq. 1, word emission and split-event
  recording, with every gather index and frequency checked
  (:func:`rans_encode`), twin of ``fused_encode``'s blocked numpy
  sweep;
- the split scan of ``core.splitter.SplitSelector.select`` —
  Definition 4.1 over every boundary's window under the sequential
  ``prev_S`` rule, and the chosen entries' lane rows
  (:func:`split_scan`), twin of the batched numpy scan.

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
events, split metadata, outputs and work counters on both kinds of
host.  On error paths (corrupt input) both raise the same typed
error; intermediate buffer contents are then unobservable and may
differ.
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
#: ``recoil_rans_encode`` return codes; see :func:`rans_encode`.
ENC_TABLE, ENC_FREQ = 1, 2

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
enum { ENC_TABLE = 1, ENC_FREQ };

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

static inline uint64_t load_symbol(const void *data, int64_t i,
                                   int64_t itemsize)
{
    switch (itemsize) {
    case 1: return ((const uint8_t *)data)[i];
    case 2: return ((const uint16_t *)data)[i];
    case 4: return ((const uint32_t *)data)[i];
    default: return ((const uint64_t *)data)[i];
    }
}

/* One task of recoil_rans_encode, from L in every lane.  Always
   inlined, so each call site's constant itemsize gets its own loop.
   Stores a word (and an event) at every symbol and keeps it only when
   the lane renormalizes: at most one word per symbol, so the stores
   stay inside the task's share of the buffers. */
static inline __attribute__((always_inline)) int64_t encode_task(
    const void *data, int64_t size, int64_t itemsize,
    const uint64_t *ids, int64_t n_ids,
    const uint64_t *freq, const uint64_t *cdf, uint64_t stride,
    uint64_t n_models, uint64_t quant_bits, int64_t K, uint64_t *x,
    uint16_t *words, uint64_t *ev_sym, uint16_t *ev_lane,
    uint16_t *ev_state, int64_t *count)
{
    const uint64_t two_n = (uint64_t)1 << quant_bits;
    const uint64_t bshift = 32 - quant_bits;  /* Eq. 3: f << (32 - n) */
    for (int64_t l = 0; l < K; ++l)
        x[l] = (uint64_t)1 << 16;
    int64_t wc = 0, l = 0;
    for (int64_t i = 0; i < size; ++i) {
        uint64_t gi = load_symbol(data, i, itemsize);
        if (gi >= stride - 1) { *count = i; return ENC_TABLE; }
        if (ids) {
            if (i >= n_ids || ids[i] >= n_models) {
                *count = i;
                return ENC_TABLE;
            }
            gi += ids[i] * stride;
        }
        const uint64_t f = freq[gi];
        if (!f) { *count = i; return ENC_FREQ; }
        uint64_t xv = x[l];
        const int64_t renorm = xv >= f << bshift;
        words[wc] = (uint16_t)xv;
        if (ev_sym) {
            ev_sym[wc] = (uint64_t)(i + 1);
            ev_lane[wc] = (uint16_t)l;
            ev_state[wc] = (uint16_t)(xv >> 16);
        }
        wc += renorm;
        xv = renorm ? xv >> 16 : xv;
        /* A 32-bit division where both operands fit: the same
           quotient, at a fraction of the latency. */
        const uint64_t q = (xv | f) >> 32
            ? xv / f : (uint64_t)((uint32_t)xv / (uint32_t)f);
        x[l] = xv + q * (two_n - f) + cdf[gi];
        if (++l == K)
            l = 0;
    }
    *count = wc;
    return 0;
}

/* The whole rANS encode of a task batch (DESIGN.md §10/§19), one task
   after another.  Symbol i of a task (0-based) is on lane i % K, so
   walking a task's symbols forward walks its interleave groups in
   order, lanes ascending inside each: the reference loop's emission
   order.  Per symbol: gather f and F from the symbol's model row of
   the encode tables (stride = alphabet + 1 columns); when the state
   reaches the Eq. 3 threshold, emit its low 16 bits and shift them
   out; then Eq. 1 as x + (x / f) * (2^n - f) + F.  The words of every
   task land in `words` back to back, and the tasks with rec[t] set
   append their events (1-based symbol index in the task, lane, state
   after) to the event arrays in the same way: `words` needs
   sum(sizes) entries, the event arrays the recording tasks' share.
   data[t] is the address of task t's symbols, itemsizes[t] their
   width; ids (NULL: a static model) the dense model ids, task t's
   from id_off[t].  Every gather index is checked against the tables
   and every frequency against zero.
   x: the (T, K) final states; counts[t]: task t's words, or on
   failure its failing position; returns 0 or an ENC_* code for
   task where[0]. */
int64_t recoil_rans_encode(
    const uint64_t *data, const int64_t *sizes, const int64_t *itemsizes,
    const int64_t *id_off, const uint8_t *rec, int64_t T,
    const uint64_t *freq, const uint64_t *cdf, uint64_t stride,
    uint64_t n_models, const uint64_t *ids, int64_t n_ids,
    uint64_t quant_bits, int64_t K, uint16_t *words, uint64_t *ev_sym,
    uint16_t *ev_lane, uint16_t *ev_state, uint64_t *x, int64_t *counts,
    int64_t *where)
{
    int64_t w0 = 0, e0 = 0;
    for (int64_t t = 0; t < T; ++t) {
        const void *d = (const void *)(uintptr_t)data[t];
        const int64_t sz = sizes[t];
        const uint64_t *tid = 0;
        int64_t tn = 0;
        if (ids) {
            if (id_off[t] < 0 || id_off[t] > n_ids) {
                counts[t] = 0;
                where[0] = t;
                return ENC_TABLE;
            }
            tid = ids + id_off[t];
            tn = n_ids - id_off[t];
        }
        uint64_t *es = rec[t] ? ev_sym + e0 : 0;
        uint16_t *el = ev_lane + e0, *et = ev_state + e0;
        uint64_t *xt = x + K * t;
        int64_t err;
        switch (itemsizes[t]) {
        case 1:
            err = encode_task(d, sz, 1, tid, tn, freq, cdf, stride,
                              n_models, quant_bits, K, xt, words + w0,
                              es, el, et, counts + t);
            break;
        case 2:
            err = encode_task(d, sz, 2, tid, tn, freq, cdf, stride,
                              n_models, quant_bits, K, xt, words + w0,
                              es, el, et, counts + t);
            break;
        case 4:
            err = encode_task(d, sz, 4, tid, tn, freq, cdf, stride,
                              n_models, quant_bits, K, xt, words + w0,
                              es, el, et, counts + t);
            break;
        default:
            err = encode_task(d, sz, 8, tid, tn, freq, cdf, stride,
                              n_models, quant_bits, K, xt, words + w0,
                              es, el, et, counts + t);
            break;
        }
        if (err) {
            where[0] = t;
            return err;
        }
        w0 += counts[t];
        if (rec[t])
            e0 += counts[t];
    }
    return 0;
}

/* The least metadata index over the lanes' last events (event ids,
   every one present). */
static int64_t lanes_min(const int64_t *last, const uint64_t *ev_sym,
                         int64_t K)
{
    uint64_t c = UINT64_MAX;
    for (int64_t l = 0; l < K; ++l)
        if (ev_sym[last[l]] < c)
            c = ev_sym[last[l]];
    return (int64_t)c - K;
}

static inline int64_t iabs(int64_t v)
{
    return v < 0 ? -v : v;
}

/* Split selection (paper §4.1-4.2, DESIGN.md §6) over an encoder's
   event log, whose symbol indices ascend.  An event's metadata index
   is m = symbol_index - K.  Boundary t = 1..B scans the `window`
   events from lo = max(0, c - window / 2), c the first event with
   m >= t * T.  Candidate e has S = m(e) and C, the least m over every
   lane's last event at or before e; it is valid when every lane has
   one, C > prev_S and S < N, and costs
   |S - prev_S - T| + |C - 1 - prev_S - T| (Definition 4.1).  The
   first minimum wins and its S becomes prev_S.  One walk of the log
   keeps each lane's last event before lo in `base`; each window runs
   on a copy in `win` (both K entries, from the caller), and the
   winner's row is gathered by replaying its window up to it.
   Writes the chosen events, their costs and their (n, K) lane indices
   and states; returns n, or -1 for an event lane outside [0, K). */
int64_t recoil_split_scan(
    const uint64_t *ev_sym, const uint16_t *ev_lane,
    const uint16_t *ev_state, int64_t E, int64_t K, int64_t N,
    int64_t T, int64_t B, int64_t window, int64_t *chosen,
    int64_t *costs, int64_t *lane_idx, uint32_t *lane_state,
    int64_t *base, int64_t *win)
{
    int64_t n = 0, next = 0, center = 0, prev_S = 0, missing = K;
    for (int64_t l = 0; l < K; ++l)
        base[l] = -1;
    for (int64_t t = 1; t <= B; ++t) {
        while (center < E && (int64_t)ev_sym[center] - K < t * T)
            ++center;
        const int64_t lo = center > window / 2 ? center - window / 2 : 0;
        const int64_t hi = E - lo > window ? lo + window : E;
        if (hi <= lo)
            continue;
        for (; next < lo; ++next) {
            if (ev_lane[next] >= K)
                return -1;
            missing -= base[ev_lane[next]] < 0;
            base[ev_lane[next]] = next;
        }
        for (int64_t l = 0; l < K; ++l)
            win[l] = base[l];
        int64_t miss = missing;
        int64_t C = miss ? 0 : lanes_min(win, ev_sym, K);
        int64_t best = -1, best_cost = 0;
        for (int64_t e = lo; e < hi; ++e) {
            const int64_t S = (int64_t)ev_sym[e] - K;
            if (S >= N)
                break;
            if (ev_lane[e] >= K)
                return -1;
            const int64_t old = win[ev_lane[e]];
            win[ev_lane[e]] = e;
            if (old < 0) {
                if (--miss == 0)
                    C = lanes_min(win, ev_sym, K);
            } else if (!miss && (int64_t)ev_sym[old] - K == C) {
                C = lanes_min(win, ev_sym, K);  /* C only rises */
            }
            if (miss || C <= prev_S)
                continue;
            const int64_t cost = iabs(S - prev_S - T)
                + iabs(C - 1 - prev_S - T);
            if (best < 0 || cost < best_cost) {
                best = e;
                best_cost = cost;
            }
        }
        if (best < 0)
            continue;
        for (int64_t l = 0; l < K; ++l)
            win[l] = base[l];
        for (int64_t e = lo; e <= best; ++e)
            win[ev_lane[e]] = e;
        for (int64_t l = 0; l < K; ++l) {
            lane_idx[n * K + l] = (int64_t)ev_sym[win[l]] - K;
            lane_state[n * K + l] = ev_state[win[l]];
        }
        chosen[n] = best;
        costs[n] = best_cost;
        prev_S = (int64_t)ev_sym[best] - K;
        ++n;
    }
    return n;
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
    lib.recoil_rans_encode.restype = i64
    lib.recoil_rans_encode.argtypes = [
        p, p, p, p, p, i64, p, p, u64, u64, p, i64, u64, i64,
        p, p, p, p, p, p, p,
    ]
    lib.recoil_split_scan.restype = i64
    lib.recoil_split_scan.argtypes = [
        p, p, p, i64, i64, i64, i64, i64, i64, p, p, p, p, p, p,
    ]
    return {
        "rans_walk": lib.recoil_rans_walk,
        "avx2_host": bool(lib.recoil_avx2_host()),
        "rans_encode": lib.recoil_rans_encode,
        "split_scan": lib.recoil_split_scan,
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
    # rANS encode of one symbol, static and adaptive, and a split scan
    # of a one-event log.
    for ids in (None, np.zeros(1, dtype=np.uint64)):
        rans_encode(
            tab[None], tab[None] - 1, ids, 1, 1,
            [np.zeros(1, dtype=np.uint8)], [0], [True],
        )
    split_scan(
        np.full(1, 2, dtype=np.uint64), np.zeros(1, dtype=np.uint16),
        np.zeros(1, dtype=np.uint16), 1, 2, 1, 1, 1,
    )
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


def rans_encode(
    freq: np.ndarray,
    cdf: np.ndarray,
    ids: np.ndarray | None,
    quant_bits: int,
    lanes: int,
    datas: list[np.ndarray],
    id_offsets: list[int],
    record: list[bool],
) -> tuple:
    """Run the whole rANS encode of a task batch in one C call.

    ``freq``/``cdf`` are :class:`~repro.rans.adaptive.EncodeTables`'
    ``(models, alphabet + 1)`` uint64 tables; ``ids`` the dense uint64
    model ids (``None`` for a static model), task ``t``'s starting at
    ``id_offsets[t]``; ``datas`` each task's 1-D symbols, read in their
    own native integer dtype; ``record[t]`` whether task ``t`` records
    its events.  Every output array is fresh and exactly sized: the
    words of all tasks back to back, then the events of the recording
    tasks the same way.

    :returns: ``(err, where, words, events, finals, counts)``: ``err``
        0 or :data:`ENC_TABLE` (a gather index outside the tables) or
        :data:`ENC_FREQ` (a zero frequency), ``where`` the failing
        ``(task, position)``; ``events`` a ``(symbol_index, lane,
        state_after)`` triple; ``finals`` the ``(T, K)`` final states
        and ``counts`` each task's words.  After an error only
        ``err`` and ``where`` mean anything.
    :raises ValueError: arrays whose dtype, layout or shape the C
        code would misread (a caller bug, checked before any pointer
        is passed).
    """
    impl = _impl()
    if impl is None:
        raise RuntimeError("compiled kernel unavailable")
    T = len(datas)
    tables = [freq, cdf] + ([] if ids is None else [ids])
    if not (
        all(
            a.dtype == np.uint64 and a.flags["C_CONTIGUOUS"]
            and a.flags["ALIGNED"]
            for a in tables
        )
        and freq.ndim == 2 and freq.shape == cdf.shape
        and freq.shape[1] >= 1
        and (ids is None or ids.ndim == 1)
        and 1 <= quant_bits <= 16 and lanes >= 1
        and len(id_offsets) == len(record) == T
        and all(
            d.ndim == 1 and d.dtype.kind in "iu" and d.dtype.isnative
            and d.dtype.itemsize in (1, 2, 4, 8)
            and d.flags["C_CONTIGUOUS"] and d.flags["ALIGNED"]
            for d in datas
        )
    ):
        raise ValueError("rans_encode arguments violate the kernel's layout")
    # Every array passed by address stays bound to a name until the
    # call returns.
    addresses = np.fromiter((d.ctypes.data for d in datas), np.uint64, T)
    sizes = np.fromiter(map(len, datas), np.int64, T)
    itemsizes = np.fromiter((d.itemsize for d in datas), np.int64, T)
    offsets = np.asarray(id_offsets, dtype=np.int64)
    rec = np.fromiter(record, np.uint8, T)
    E = int(sizes @ rec)
    words = np.empty(int(sizes.sum()), dtype=np.uint16)
    events = (
        np.empty(E, dtype=np.uint64),
        np.empty(E, dtype=np.uint16),
        np.empty(E, dtype=np.uint16),
    )
    finals = np.empty((T, lanes), dtype=np.uint64)
    counts = np.zeros(T, dtype=np.int64)
    where = np.zeros(1, dtype=np.int64)
    err = impl["rans_encode"](
        addresses.ctypes.data, sizes.ctypes.data, itemsizes.ctypes.data,
        offsets.ctypes.data, rec.ctypes.data, T,
        freq.ctypes.data, cdf.ctypes.data, freq.shape[1], freq.shape[0],
        None if ids is None else ids.ctypes.data,
        0 if ids is None else len(ids),
        quant_bits, lanes, words.ctypes.data,
        events[0].ctypes.data, events[1].ctypes.data,
        events[2].ctypes.data, finals.ctypes.data, counts.ctypes.data,
        where.ctypes.data,
    )
    if not err:
        # The C code packs the words and events at the front: trim
        # each buffer to that prefix with a shrinking realloc (no
        # copy; no view of them exists yet), so a held result keeps
        # its own words and events, not one slot per symbol.
        words.resize(int(counts.sum()), refcheck=False)
        for a in events:
            a.resize(int(counts @ rec), refcheck=False)
    t = int(where[0])
    return (
        err, (t, int(counts[t]) if err else 0), words,
        events, finals, counts,
    )


def split_scan(
    symbol_index: np.ndarray,
    lane: np.ndarray,
    state_after: np.ndarray,
    lanes: int,
    num_symbols: int,
    per_split: int,
    boundaries: int,
    window: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Choose the splits of an event log in one C call: the scan of
    ``core.splitter.SplitSelector.select`` (DESIGN.md §6).

    The log's arrays are a :class:`~repro.rans.interleaved.RenormEvents`'
    (uint64, uint16, uint16; symbol indices ascending).
    ``per_split`` is Definition 4.1's ``T`` and ``boundaries`` the
    number of ideal boundaries ``t * T``, ``t = 1..boundaries``.

    :returns: fresh ``(chosen, costs, lane_indices, lane_states)``:
        the chosen event ids and their int64 costs, and the ``(n, K)``
        int64 metadata indices and uint32 states of each lane's last
        event at each; ``None`` when an event's lane lies outside
        ``[0, lanes)``.
    :raises ValueError: arrays the C code would misread.
    """
    impl = _impl()
    if impl is None:
        raise RuntimeError("compiled kernel unavailable")
    E = len(symbol_index)
    if not (
        all(
            a.dtype == dt and a.shape == (E,) and a.flags["C_CONTIGUOUS"]
            and a.flags["ALIGNED"]
            for a, dt in (
                (symbol_index, np.uint64), (lane, np.uint16),
                (state_after, np.uint16),
            )
        )
        and lanes >= 1 and boundaries >= 0
    ):
        raise ValueError("split_scan arguments violate the kernel's layout")
    chosen = np.empty(boundaries, dtype=np.int64)
    costs = np.empty(boundaries, dtype=np.int64)
    indices = np.empty((boundaries, lanes), dtype=np.int64)
    states = np.empty((boundaries, lanes), dtype=np.uint32)
    base, win = np.empty((2, lanes), dtype=np.int64)
    n = impl["split_scan"](
        symbol_index.ctypes.data, lane.ctypes.data, state_after.ctypes.data,
        E, lanes, num_symbols, per_split, boundaries, window,
        chosen.ctypes.data, costs.ctypes.data, indices.ctypes.data,
        states.ctypes.data, base.ctypes.data, win.ctypes.data,
    )
    if n < 0:
        return None
    return chosen[:n], costs[:n], indices[:n], states[:n]
