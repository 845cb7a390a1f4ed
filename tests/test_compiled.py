"""Tests for the compiled kernel surface (DESIGN.md §19).

Covers host detection — the only kernel choice: no decode, encode or
serving surface takes a kernel — the numpy fallback when no toolchain
exists (forced via ``REPRO_COMPILED_TOOLCHAIN=none``), the warm-up
contract: after :func:`repro.parallel.compiled.warm_up` no compile may
ever land inside a timed region (asserted through the compile-event
counter), a warning-free C source, and the two bodies of the C walk
(:class:`TestWalkBodies`): the SIMD body, the scalar body and
``reference_walk`` agree on every plan shape that decides whether a
group runs SIMD.  Bit-identity of the compiled loops on containers is
asserted by the kernel-parametrized differential suites
(``test_fused*``, ``test_golden``).
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.data import text_surrogate
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.parallel.fused import TaskColumns, fused_run, reference_walk
from repro.rans.adaptive import StaticModelProvider
from repro.rans.model import SymbolModel

from conftest import needs_compiled, running_on
from walk_bodies import c_walks


class TestSplitBackend:
    """Host detection is the one kernel choice."""

    def test_served_default_in_one_place(self):
        """The service runs what host detection picks; no serving
        surface takes a kernel of its own."""
        from repro.serve import RecoilService
        from repro.serve.bench import run_serve_bench
        from repro.serve.loadgen import run_load_bench
        from repro.serve.service import ServiceConfig

        fields = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert not any("kernel" in name for name in fields)
        for fn in (run_serve_bench, run_load_bench):
            assert "kernel" not in inspect.signature(fn).parameters
        with RecoilService() as svc:
            assert svc.decode_kernel == compiled.warm_up()


@pytest.fixture
def forced_none():
    """Force toolchain detection to ``none`` for one test, restoring
    real detection afterwards."""
    with running_on("numpy"):
        yield


class TestFallbackWithoutToolchain:
    def test_detection_and_resolution(self, forced_none):
        assert compiled.toolchain() == "none"
        assert not compiled.kernel_available()
        assert compiled.warm_up() == "numpy"

    def test_decode_still_works_on_numpy(
        self, forced_none, skewed_bytes, provider11
    ):
        """A toolchain-less host runs the numpy loops — output
        identical, nothing raises."""
        data = skewed_bytes[:4_000]
        enc = RecoilEncoder(provider11).encode(data, num_threads=4)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        fused_run(provider11, 32, enc.words, tasks, out)
        assert np.array_equal(out, data)

    def test_pool_reports_effective_numpy(
        self, forced_none, skewed_bytes, provider11
    ):
        data = skewed_bytes[:4_000]
        enc = RecoilEncoder(provider11).encode(data, num_threads=4)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider11, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, 2,
        )
        assert res.kernel == "numpy"
        assert np.array_equal(res.symbols, data)

    def test_service_reports_numpy(self, forced_none):
        """Without a toolchain a default service serves
        bit-identically on numpy and says so."""
        from repro.serve import RecoilService

        r = np.random.default_rng(77)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        with RecoilService() as svc:
            svc.put_asset("a", data)
            assert np.array_equal(svc.decompress("a", 8), data)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["kernel"] == "numpy"
            assert svc.decode_kernel == "numpy"

    def test_fallback_notice_logged_once(
        self, monkeypatch, caplog, skewed_bytes, provider11
    ):
        """A host with no C compiler on PATH logs one notice, however
        many kernel calls follow."""
        import logging

        monkeypatch.delenv("REPRO_COMPILED_TOOLCHAIN", raising=False)
        monkeypatch.setattr(compiled, "_find_cc", lambda: None)
        compiled.reset_for_tests()
        data = skewed_bytes[:2_000]
        try:
            with caplog.at_level(logging.WARNING, logger="repro.compiled"):
                assert not compiled.kernel_available()
                enc = RecoilEncoder(provider11).encode(data, num_threads=2)
                res = decode_with_pool(
                    provider11, 32, enc.words,
                    build_thread_tasks(
                        enc.metadata, len(enc.words), enc.final_states
                    ),
                    enc.num_symbols, np.uint8, 2,
                )
                assert compiled.warm_up() == "numpy"
        finally:
            compiled.reset_for_tests()
        assert res.kernel == "numpy"
        assert np.array_equal(res.symbols, data)
        notices = [
            r for r in caplog.records if "numpy kernels" in r.message
        ]
        assert len(notices) == 1


class TestToolchainVariable:
    """``REPRO_COMPILED_TOOLCHAIN``: ``none`` forces numpy, unset or
    ``auto`` detects, and any other value warns once, naming itself,
    then detects."""

    @pytest.fixture
    def detect(self, monkeypatch, caplog):
        """Detection under a given value, on a host with a compiler
        on PATH; returns the toolchain and the warnings logged."""
        import logging

        monkeypatch.setattr(compiled, "_find_cc", lambda: "/bin/cc")

        def run(value):
            if value is None:
                monkeypatch.delenv("REPRO_COMPILED_TOOLCHAIN", raising=False)
            else:
                monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", value)
            compiled.reset_for_tests()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.compiled"):
                tc = compiled.toolchain()
                assert compiled.toolchain() == tc  # cached: no re-log
            return tc, [r.getMessage() for r in caplog.records]

        yield run
        monkeypatch.undo()
        compiled.reset_for_tests()

    @pytest.mark.parametrize(
        "value, expected", [(None, "cc"), ("auto", "cc"), ("none", "none")]
    )
    def test_known_values(self, detect, value, expected):
        assert detect(value) == (expected, [])

    @pytest.mark.parametrize("value", ["gcc", "cc", "clang"])
    def test_unknown_value_warns_then_detects(self, detect, value):
        tc, warnings = detect(value)
        assert tc == "cc"
        assert len(warnings) == 1
        assert "REPRO_COMPILED_TOOLCHAIN" in warnings[0]
        assert repr(value) in warnings[0]


@needs_compiled
class TestWarmUpContract:
    def test_warm_up_idempotent_and_effective(self):
        assert compiled.warm_up() == "compiled"
        events = compiled.compile_events()
        assert compiled.warm_up() == "compiled"
        assert compiled.compile_events() == events

    def test_no_compile_inside_timed_region(
        self, skewed_bytes, provider11
    ):
        """The benchmark/serve contract: once warmed, decodes and
        encodes on the compiled kernel never trigger a compile (the
        event counter stays frozen across the timed work)."""
        assert compiled.warm_up() == "compiled"
        data = skewed_bytes[:8_000]
        events_before = compiled.compile_events()
        # -- timed region (as a benchmark would measure it) ----------
        enc = RecoilEncoder(provider11).encode(data, num_threads=8)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider11, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, 2,
        )
        # -- end timed region ----------------------------------------
        assert np.array_equal(res.symbols, data)
        assert res.kernel == "compiled"
        assert compiled.compile_events() == events_before

    def test_service_startup_warms_up(self):
        """A service warms up in __init__, so its first request never
        pays the build."""
        from repro.serve import RecoilService

        r = np.random.default_rng(78)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        with RecoilService() as svc:
            events = compiled.compile_events()
            svc.put_asset("a", data)
            assert np.array_equal(svc.decompress("a", 8), data)
            assert compiled.compile_events() == events
            assert svc.decode_kernel == "compiled"


@needs_compiled
class TestWalkBoundsChecks:
    """The compiled walk bounds-checks every read, store, model-id read
    and activation lane, and turns each failure into a DecodeError —
    including task shapes no container can produce, where the numpy
    kernel would raise IndexError or wrap a negative index."""

    @pytest.fixture(scope="class")
    def stream(self, skewed_bytes, provider11):
        data = skewed_bytes[:3_000]
        return data, RecoilEncoder(provider11, lanes=4).encode(
            data, num_threads=1
        )

    def _task(self, enc, **changes):
        """The stream's one task (a single split decodes from the final
        states), with any plan argument overridden by ``changes``."""
        plan = dict(
            start_pos=len(enc.words) - 1,
            walk_hi=enc.num_symbols,
            walk_lo=1,
            commit_hi=enc.num_symbols,
            commit_lo=1,
            check_terminal=True,
            init_task=[0],
            init_states=[enc.final_states],
        )
        return TaskColumns.build(4, **{**plan, **changes})

    def _decode(self, provider, enc, task, n=None):
        out = np.zeros(enc.num_symbols if n is None else n, np.uint8)
        fused_run(provider, 4, enc.words, task, out)
        return out

    def test_task_is_the_built_plan(self, stream):
        """``_task()`` is exactly what :func:`build_thread_tasks` plans
        for the stream, so the hostile cases below edit a real plan."""
        _, enc = stream
        built = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        for a, b in zip(
            dataclasses.astuple(built), dataclasses.astuple(self._task(enc))
        ):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_clean_task_decodes(self, stream, provider11):
        data, enc = stream
        assert np.array_equal(
            self._decode(provider11, enc, self._task(enc)), data
        )

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"global_offset": 5}, "output position outside"),
            ({"global_offset": -1}, "output position outside"),
            ({"start_pos": 3}, "stream read out of range"),
            ({"terminal_pos": -5}, "not fully consumed"),
            ({"init_task": [], "init_states": None, "act_task": [0],
              "act_index": [3_000], "act_lane": [4], "act_state": [1 << 16]},
             "activation lane outside"),
            ({"start_pos": 10**6}, "beyond stream"),
            ({"act_task": [0], "act_index": [0], "act_lane": [0],
              "act_state": [1 << 16]},
             "outside walk range"),
            ({"init_states": [np.ones(3, np.uint64)]}, "shape"),
        ],
    )
    def test_hostile_task_fails_typed(
        self, stream, provider11, changes, message
    ):
        """Building the plan or running it raises, each with its own
        message; the lane outside ``[0, K)`` is the C kernel's check."""
        _, enc = stream
        with pytest.raises(DecodeError, match=message):
            self._decode(provider11, enc, self._task(enc, **changes))

    def test_model_id_outside_bank(self, stream, model11):
        from repro.rans.adaptive import IndexedModelProvider

        class OutOfBank(IndexedModelProvider):
            def model_ids_for_range(self, start, stop):
                return np.full(stop - start, 7, dtype=np.intp)

        _, enc = stream
        provider = OutOfBank([model11] * 2, np.zeros(3_000, np.intp))
        with pytest.raises(DecodeError, match="model id outside"):
            self._decode(provider, enc, self._task(enc))

    def test_layout_violation_rejected_before_c(self):
        """A caller passing arrays the C code would misread gets a
        ValueError, not an out-of-bounds access."""
        z64 = np.zeros(0, np.int64)
        args = dict(
            words=np.zeros(4, np.uint16), freq=np.ones(2, np.uint64),
            bias=np.ones(2, np.uint64), sym=np.ones(2, np.uint64),
            slot_count=2, slot_mask=1, ids=None, quant_bits=1,
            renorm_bits=16, lbound=1 << 16, out=np.zeros(4, np.uint8),
            lanes=1, geom=np.zeros((1, 8), np.int64),
            init=np.zeros((1, 1), np.uint64),
            has_init=np.zeros(1, np.uint8),
            act_ptr=np.array([0, 3]), act_iter=z64, act_lane=z64,
            act_state=np.zeros(0, np.uint64),
        )
        with pytest.raises(ValueError, match="layout"):
            compiled.rans_walk(**args)  # act_ptr runs past act_*
        args["act_ptr"] = np.zeros(2, np.int64)
        args["geom"] = np.zeros((1, 8), np.int32)
        with pytest.raises(ValueError, match="layout"):
            compiled.rans_walk(**args)
        args["geom"] = np.zeros((1, 8), np.int64)
        args["sym"] = np.ones(2, np.uint8)  # the walk reads 8-byte symbols
        with pytest.raises(ValueError, match="layout"):
            compiled.rans_walk(**args)
        args["sym"] = np.ones(2, np.uint64)
        for packed in (np.ones(2, np.uint64), np.ones((1, 2), np.uint32)):
            with pytest.raises(ValueError, match="layout"):
                compiled.rans_walk(**args, packed=packed)


@pytest.mark.skipif(compiled._find_cc() is None, reason="no C compiler")
def test_c_source_builds_without_warnings(tmp_path):
    """The kernel source compiles warning-free under the strict flags
    (the SIMD body's casts and the scalar walk's integer widths)."""
    src = tmp_path / "kernels.c"
    src.write_text(compiled._C_SOURCE)
    proc = subprocess.run(
        [compiled._find_cc(), "-O3", "-shared", "-fPIC", "-Wall",
         "-Wextra", "-Wconversion", "-Werror", "-o",
         str(tmp_path / "kernels.so"), str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _walk_on(body, provider, lanes, words, columns, out):
    """``body`` ("simd", "scalar" or "reference") on one plan: the
    output and :class:`EngineStats`, or the error type and message,
    plus the groups the SIMD body ran."""
    walk = reference_walk if body == "reference" else fused_run
    try:
        with c_walks(scalar=body == "scalar") as calls:
            stats = walk(provider, lanes, words, columns, out)
    except DecodeError as exc:
        return (DecodeError, str(exc)), sum(calls)
    return (out.copy(), stats), sum(calls)


def walk_bodies_agree(provider, lanes, words, columns, n_out,
                      dtype=np.uint8, store_error=False):
    """Run a plan on the C walk's SIMD body, its scalar body and
    ``reference_walk``; assert identical output and ``EngineStats``
    (or the same error: the same message on both C bodies), and
    return the groups the SIMD body ran.  With ``store_error`` the
    plan stores outside ``out`` and both C bodies must fail that
    store with the same DecodeError; the reference is not run, since
    its numpy stores wrap a negative position and raise IndexError
    past the end."""
    results = {}
    bodies = ("simd", "scalar") + (() if store_error else ("reference",))
    for body in bodies:
        out = np.zeros(n_out, dtype=dtype)
        results[body], groups = _walk_on(
            body, provider, lanes, words, columns, out
        )
        if body == "simd":
            simd_groups = groups
        else:
            assert groups == 0, body
    if store_error:
        for body in ("simd", "scalar"):
            assert results[body][0] is DecodeError, body
            assert "output position outside" in results[body][1], body
        assert results["simd"][1] == results["scalar"][1]
        return simd_groups
    ref = results["reference"]
    for body in ("simd", "scalar"):
        got = results[body]
        assert got[0] is DecodeError if ref[0] is DecodeError else (
            np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        ), (body, got, ref)
    if ref[0] is DecodeError:
        assert results["simd"][1] == results["scalar"][1]
    return simd_groups


@pytest.fixture(scope="module")
def text_stream():
    """200k symbols of the text surrogate, n=11, K=32, 64 splits."""
    data = text_surrogate(200_000, target_entropy=5.29, seed=5)
    provider = StaticModelProvider(
        SymbolModel.from_data(data, 11, alphabet_size=256)
    )
    return data, provider, RecoilEncoder(provider, 32).encode(data, 64)


def _one_task(enc, lanes=32, **changes):
    """The stream's whole decode as one task from the final states."""
    plan = dict(
        start_pos=len(enc.words) - 1, walk_hi=enc.num_symbols, walk_lo=1,
        commit_hi=enc.num_symbols, commit_lo=1, check_terminal=True,
        init_task=[0], init_states=[enc.final_states],
    )
    return TaskColumns.build(lanes, **{**plan, **changes})


@needs_compiled
class TestWalkBodies:
    """The C walk's SIMD body (full interleave groups, DESIGN.md §19),
    its scalar body and ``reference_walk`` agree on output and
    ``EngineStats`` on the plan shapes that decide which body runs a
    group: capacities, the stream running low, commit ranges off the
    group grid, states of 2^32 and above, output dtypes, n and K.  On
    a host without AVX2 both C calls run the scalar body."""

    @pytest.mark.parametrize("capacity", [1, 4, 16, 64])
    def test_text_capacities(self, text_stream, capacity):
        data, provider, enc = text_stream
        columns = build_thread_tasks(
            enc.metadata.combine(capacity), len(enc.words), enc.final_states
        )
        groups = walk_bodies_agree(
            provider, 32, enc.words, columns, len(data)
        )
        assert (groups > 0) == compiled.avx2_host()

    def test_words_running_low_fall_back(self, text_stream):
        """With fewer than K words left at or below ``pos`` a stretch
        ends and the scalar body takes over: at the bottom of a clean
        stream, and mid-stretch in a plan whose stream runs out (both
        C bodies then fail the same read)."""
        data, provider, enc = text_stream
        clean = walk_bodies_agree(
            provider, 32, enc.words, _one_task(enc), len(data)
        )
        if compiled.avx2_host():
            assert 0 < clean < len(data) // 32
        short = _one_task(enc, start_pos=len(enc.words) // 2)
        walk_bodies_agree(provider, 32, enc.words, short, len(data))
        with pytest.raises(DecodeError, match="stream read out of range"):
            fused_run(
                provider, 32, enc.words, short, np.zeros(len(data), np.uint8)
            )

    @pytest.mark.parametrize(
        "commit", [(1_001, 150_017), (33, 64), (7, 199_999)]
    )
    def test_commit_range_off_the_group_grid(self, text_stream, commit):
        data, provider, enc = text_stream
        lo, hi = commit
        task = _one_task(enc, commit_lo=lo, commit_hi=hi,
                         check_terminal=False)
        walk_bodies_agree(provider, 32, enc.words, task, len(data))

    @pytest.mark.parametrize(
        "offset,spare,commit_lo",
        [(-1, 0, 1), (1, 0, 1), (5, 0, 1), (0, -1, 1), (0, -40, 1),
         (-1_025, 0, 1_025), (-1, 0, 2), (-1_024, 0, 1_025), (5, 5, 1)],
    )
    def test_output_range(self, text_stream, offset, spare, commit_lo):
        """The SIMD body's 32-byte stores are unchecked, so a stretch
        enters it only if every store of the stretch lies in ``out``
        (checked once).  A plan storing one byte below ``out`` (a
        negative global offset) or past its end (a positive one, or an
        ``out`` ``-spare`` bytes shorter than the walk) fails the same
        store on both C bodies, having run no SIMD group; a plan whose
        stores just fit, starting at ``out[0]`` or ending at its last
        byte, decodes identically on all three walks, with SIMD
        groups."""
        data, provider, enc = text_stream
        task = _one_task(enc, global_offset=offset, commit_lo=commit_lo)
        inside = offset + commit_lo - 1 >= 0 and offset <= spare
        groups = walk_bodies_agree(
            provider, 32, enc.words, task, len(data) + spare,
            store_error=not inside,
        )
        assert (groups > 0) == (inside and compiled.avx2_host())

    @pytest.mark.parametrize("state", [1 << 32, (1 << 40) + 12_345,
                                       (1 << 64) - 1])
    def test_initial_state_at_or_above_2_32(self, text_stream, state):
        """A hostile plan's 64-bit state keeps its task on the scalar
        body, whose uint64 arithmetic the reference shares, until the
        state falls below 2^32.  Walking the upper half decodes
        (wrong symbols); the whole stream fails its reads."""
        data, provider, enc = text_stream
        init = np.array(enc.final_states, dtype=np.uint64)
        init[5] = state
        half = _one_task(enc, init_states=[init], walk_lo=100_001,
                         commit_lo=100_001, check_terminal=False)
        groups = walk_bodies_agree(provider, 32, enc.words, half, len(data))
        if compiled.avx2_host():
            assert 0 < groups < 100_000 // 32
        whole = _one_task(enc, init_states=[init])
        walk_bodies_agree(provider, 32, enc.words, whole, len(data))

    def test_activation_due_mid_walk(self, text_stream):
        """A task with initial states that also installs an activation
        deep in its walk: the groups before it are full, and the group
        that installs it must not be skipped.  (Its walk ends well
        above the stream's start, so the overwritten state garbles
        symbols but reads stay in range.)"""
        data, provider, enc = text_stream
        task = _one_task(enc, walk_lo=80_001, commit_lo=80_001,
                         check_terminal=False, act_task=[0],
                         act_index=[100_000], act_lane=[3],
                         act_state=[1 << 16])
        groups = walk_bodies_agree(provider, 32, enc.words, task, len(data))
        if compiled.avx2_host():
            assert groups > 0

    def test_lanes_never_all_active(self, text_stream):
        """A task one of whose lanes never activates stays on the
        scalar body: its inactive lane neither reads nor decodes."""
        data, provider, enc = text_stream
        plan = build_thread_tasks(
            enc.metadata.combine(4), len(enc.words), enc.final_states
        )
        t = int(np.flatnonzero(plan.has_init == 0)[0])
        task = plan.rows([t])
        keep = task.act_lane != 0
        task = dataclasses.replace(
            task,
            act_ptr=np.array([0, int(keep.sum())]),
            act_iter=task.act_iter[keep],
            act_lane=task.act_lane[keep],
            act_state=task.act_state[keep],
        )
        assert walk_bodies_agree(
            provider, 32, enc.words, task, len(data)
        ) == 0

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_wider_output(self, text_stream, dtype):
        data, provider, enc = text_stream
        columns = build_thread_tasks(
            enc.metadata.combine(16), len(enc.words), enc.final_states
        )
        groups = walk_bodies_agree(
            provider, 32, enc.words, columns, len(data), dtype
        )
        assert groups == 0

    @pytest.mark.parametrize("quant_bits", [12, 16])
    def test_quant_bits(self, quant_bits):
        data = text_surrogate(60_000, target_entropy=5.29, seed=6)
        provider = StaticModelProvider(
            SymbolModel.from_data(data, quant_bits, alphabet_size=256)
        )
        enc = RecoilEncoder(provider, 32).encode(data, 16)
        columns = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        groups = walk_bodies_agree(
            provider, 32, enc.words, columns, len(data)
        )
        packed = provider.decode_tables.packed
        assert (groups > 0) == (packed is not None and compiled.avx2_host())

    @pytest.mark.parametrize("lanes", [4, 8, 32])
    def test_lane_counts(self, lanes):
        data = text_surrogate(60_000, target_entropy=5.29, seed=7)
        provider = StaticModelProvider(
            SymbolModel.from_data(data, 11, alphabet_size=256)
        )
        enc = RecoilEncoder(provider, lanes).encode(data, 16)
        columns = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        groups = walk_bodies_agree(
            provider, lanes, enc.words, columns, len(data)
        )
        assert (groups > 0) == (lanes == 32 and compiled.avx2_host())
