"""Tests for the compiled kernel surface (DESIGN.md §19).

Covers the knob itself — kernel resolution and the served default —
the graceful numpy fallback when no toolchain exists (forced via
``REPRO_COMPILED_TOOLCHAIN=none``), and the warm-up contract: after
:func:`repro.parallel.compiled.warm_up` no compile may ever land
inside a timed region (asserted through the compile-event counter).
Bit-identity of the compiled loops themselves is asserted by the
kernel-parametrized differential suites (``test_fused*``,
``test_golden``), not here.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError, ParallelismError
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.parallel.simd import LaneEngine

from conftest import needs_compiled


class TestSplitBackend:
    """The kernel knob: resolution and the served default."""

    def test_effective_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            compiled.effective_kernel("gpu")

    def test_effective_kernel_numpy_is_identity(self):
        assert compiled.effective_kernel("numpy") == "numpy"

    def test_executor_rejects_bad_suffix_as_parallelism_error(
        self, provider11
    ):
        # The pool reports an unknown kernel as a ParallelismError (not
        # effective_kernel's ValueError), even with no tasks to run.
        for kernel in ("compiled+gpu", "thread+gpu"):
            with pytest.raises(ParallelismError):
                decode_with_pool(
                    provider11, 32, np.zeros(4, np.uint16), [], 0,
                    np.uint8, 2, kernel=kernel,
                )

    def test_served_default_in_one_place(self):
        """The service default is the compiled kernel, and every
        serving surface takes its ``kernel`` default from it."""
        from repro.cli import build_parser
        from repro.serve.bench import run_serve_bench
        from repro.serve.loadgen import run_load_bench
        from repro.serve.service import ServiceConfig

        default = ServiceConfig().decode_kernel
        assert default == "compiled"
        parser = build_parser()
        for cmd in ("serve", "serve-bench", "load-bench"):
            assert parser.parse_args([cmd]).kernel == default
        for fn in (run_serve_bench, run_load_bench):
            kernel = inspect.signature(fn).parameters["kernel"]
            assert kernel.default == default


@pytest.fixture
def forced_none(monkeypatch):
    """Force toolchain detection to ``none`` for one test, restoring
    real detection afterwards."""
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    compiled.reset_for_tests()
    yield
    monkeypatch.delenv("REPRO_COMPILED_TOOLCHAIN", raising=False)
    compiled.reset_for_tests()


class TestFallbackWithoutToolchain:
    def test_detection_and_resolution(self, forced_none):
        assert compiled.toolchain() == "none"
        assert not compiled.kernel_available()
        assert compiled.effective_kernel("compiled") == "numpy"
        assert compiled.warm_up() == "numpy"

    def test_decode_still_works_on_numpy(
        self, forced_none, skewed_bytes, provider11
    ):
        """kernel="compiled" on a toolchain-less host silently runs
        the numpy loops — output identical, nothing raises."""
        data = skewed_bytes[:4_000]
        enc = RecoilEncoder(provider11).encode(data, num_threads=4)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        LaneEngine(provider11, 32, kernel="compiled").run(
            enc.words, tasks, out
        )
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
            np.uint8, 2, kernel="compiled",
        )
        assert res.kernel == "numpy"
        assert np.array_equal(res.symbols, data)

    def test_service_reports_configured_vs_effective(self, forced_none):
        """A default service asks for the compiled kernel; without a
        toolchain it serves bit-identically on numpy and says so."""
        from repro.serve import RecoilService

        r = np.random.default_rng(77)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        with RecoilService() as svc:
            svc.put_asset("a", data)
            assert np.array_equal(svc.decompress("a", 8), data)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["kernel"] == {
                "configured": "compiled",
                "effective": "numpy",
            }

    def test_fallback_notice_logged_once(self, forced_none, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.compiled"):
            assert compiled.effective_kernel("compiled") == "numpy"
            assert compiled.effective_kernel("compiled") == "numpy"
        notices = [
            r for r in caplog.records if "falling back" in r.message
        ]
        assert len(notices) == 1


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
        enc = RecoilEncoder(provider11).encode(
            data, num_threads=8, kernel="compiled"
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider11, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, 2, kernel="compiled",
        )
        # -- end timed region ----------------------------------------
        assert np.array_equal(res.symbols, data)
        assert res.kernel == "compiled"
        assert compiled.compile_events() == events_before

    def test_service_startup_warms_up(self):
        """A compiled-kernel service warms up in __init__, so its
        first request never pays the build."""
        from repro.serve import RecoilService, ServiceConfig

        r = np.random.default_rng(78)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        cfg = ServiceConfig(decode_kernel="compiled")
        with RecoilService(config=cfg) as svc:
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
        (task,) = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        for name, value in changes.items():
            setattr(task, name, value)
        return task

    def _decode(self, provider, enc, task, n=None):
        out = np.zeros(enc.num_symbols if n is None else n, np.uint8)
        LaneEngine(provider, 4, kernel="compiled").run(
            enc.words, [task], out
        )
        return out

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
            ({"initial_states": None,
              "activations": [(3_000, 4, 1 << 16)]},
             "activation lane outside"),
            ({"start_pos": 10**6}, "beyond stream"),
            ({"activations": [(0, 0, 1 << 16)]}, "outside walk range"),
            ({"initial_states": np.ones(3, np.uint64)}, "shape"),
        ],
    )
    def test_hostile_task_fails_typed(
        self, stream, provider11, changes, message
    ):
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
