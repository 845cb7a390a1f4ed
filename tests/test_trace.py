"""Cross-layer request tracing (``repro.trace``, DESIGN.md §17).

Three contracts under test:

- the **disabled fast path** costs nothing: no lock acquisition, no
  allocation, no clock read — proven by poisoning the module lock and
  exercising every entry point;
- the **histogram** answers quantile queries within one log-bucket of
  numpy's exact percentiles, in bounded memory, and merges losslessly;
- the **Chrome export** is schema-valid and stitches one request's
  spans accept -> service -> batch -> write into one tree, even while
  a kernel fault fails a request mid-run.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro import faults, trace
from repro.errors import TraceError
from repro.trace import core as trace_core
from repro.trace.hist import GROWTH, LatencyHistogram, bucket_index, bucket_value


@pytest.fixture(autouse=True)
def _clean_trace():
    trace.reset()
    yield
    trace.reset()
    faults.reset()


# -- histogram ---------------------------------------------------------------


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.percentile(50) is None
        assert h.mean is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p99_ms"] is None

    def test_percentile_range_checked(self):
        h = LatencyHistogram()
        h.record(0.01)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_negative_samples_clamped(self):
        h = LatencyHistogram()
        h.record(-5.0)
        assert h.count == 1
        assert h.min == 0.0

    def test_bucket_roundtrip_monotone(self):
        values = [1e-8, 1e-6, 3.3e-4, 0.01, 0.25, 7.0, 1e4]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)
        for v in values[1:-1]:
            mid = bucket_value(bucket_index(v))
            # the bucket midpoint is within one growth factor of v
            assert mid / v < GROWTH and v / mid < GROWTH

    def test_quantiles_match_numpy_within_bucket_error(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-4.0, sigma=1.2, size=20_000)
        h = LatencyHistogram()
        for s in samples:
            h.record(float(s))
        for q in (50, 90, 99, 99.9):
            exact = float(np.percentile(samples, q))
            approx = h.percentile(q)
            # log-bucketed: relative error bounded by one bucket width
            assert approx / exact < GROWTH * 1.01
            assert exact / approx < GROWTH * 1.01
        assert h.count == len(samples)
        assert h.mean == pytest.approx(float(samples.mean()), rel=1e-9)
        assert h.max == pytest.approx(float(samples.max()))

    def test_merge_equals_combined_stream(self):
        rng = np.random.default_rng(8)
        a_samples = rng.exponential(0.01, 5000)
        b_samples = rng.exponential(0.10, 5000)
        a, b, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for s in a_samples:
            a.record(float(s))
            combined.record(float(s))
        for s in b_samples:
            b.record(float(s))
            combined.record(float(s))
        a.merge(b)
        assert a.count == combined.count
        assert a.total == pytest.approx(combined.total)
        for q in (50, 99, 99.9):
            assert a.percentile(q) == pytest.approx(combined.percentile(q))

    def test_bounded_memory(self):
        # one million samples must not grow the bucket array
        h = LatencyHistogram()
        rng = np.random.default_rng(9)
        for s in rng.exponential(0.01, 100_000):
            h.record(float(s))
        assert len(h._buckets) == len(LatencyHistogram()._buckets)

    def test_snapshot_fields_ms(self):
        h = LatencyHistogram()
        h.record(0.010)
        snap = h.snapshot()
        assert set(snap) == {
            "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "p999_ms",
            "max_ms",
        }
        assert snap["count"] == 1
        assert snap["mean_ms"] == pytest.approx(10.0)
        assert snap["max_ms"] == pytest.approx(10.0)


# -- ring buffer and ids -----------------------------------------------------


class TestSpanRing:
    def test_disabled_by_default(self):
        assert not trace.enabled()
        assert trace.record_span("x", 0.0, 1.0) is None
        assert trace.snapshot() == []

    def test_record_and_drain(self):
        trace.enable()
        sid = trace.record_span("a", 1.0, 2.0, req=7, args={"k": "v"})
        assert isinstance(sid, int)
        child = trace.record_span("b", 1.2, 1.5, parent=sid, req=7)
        assert child != sid
        spans = trace.drain()
        assert [s.name for s in spans] == ["a", "b"]
        assert spans[0].dur == pytest.approx(1.0)
        assert spans[1].parent == sid
        assert spans[0].req == spans[1].req == 7
        assert trace.drain() == []

    def test_ids_unique_across_requests_and_spans(self):
        trace.enable()
        ids = {trace.new_request(), trace.next_span_id(),
               trace.record_span("x", 0.0, 0.1), trace.new_request()}
        assert len(ids) == 4

    def test_ring_bounds_and_dropped(self):
        trace.enable(capacity=8)
        for i in range(20):
            trace.record_span(f"s{i}", 0.0, 0.1)
        spans = trace.snapshot()
        assert len(spans) == 8
        # oldest evicted, newest kept
        assert spans[-1].name == "s19"
        assert trace.dropped() == 12

    def test_negative_duration_clamped(self):
        trace.enable()
        trace.record_span("x", 2.0, 1.0)
        assert trace.snapshot()[0].dur == 0.0

    def test_instant_is_zero_duration(self):
        trace.enable()
        trace.record_instant("mark", args={"n": 1})
        span = trace.snapshot()[0]
        assert span.dur == 0.0

    def test_tracing_context_manager(self):
        with trace.tracing():
            assert trace.enabled()
            trace.record_span("x", 0.0, 0.1)
        assert not trace.enabled()
        assert len(trace.snapshot()) == 1  # ring survives disable

    def test_enable_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            trace.enable(capacity=0)


class TestDisabledFastPath:
    """Satellite 3: the disabled path takes no lock and allocates no
    span — the overhead guard CI gates on."""

    def test_no_lock_taken_when_disabled(self, monkeypatch):
        class PoisonLock:
            def acquire(self, *a, **k):  # pragma: no cover - must not run
                raise AssertionError("disabled trace path took the lock")

            __enter__ = acquire

            def release(self):  # pragma: no cover
                raise AssertionError("disabled trace path took the lock")

            def __exit__(self, *exc):  # pragma: no cover
                raise AssertionError("disabled trace path took the lock")

        monkeypatch.setattr(trace_core, "_lock", PoisonLock())
        assert not trace.enabled()
        assert trace.ts() == 0.0
        assert trace.new_request() is None
        assert trace.next_span_id() is None
        assert trace.record_span("x", 0.0, 1.0) is None
        assert trace.record_instant("x") is None

    def test_ts_returns_module_constant(self):
        # identity, not equality: the disabled path must not allocate
        # a fresh float per request
        assert trace.ts() is trace_core._ZERO
        assert trace.ts() is trace.ts()

    def test_disabled_overhead_is_flat(self):
        """record_span when disabled is within noise of a plain
        function call — a generous 20x bound that catches accidental
        locking or clock reads without being timing-flaky."""

        def noop(name, t0, t1):
            return None

        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            noop("x", 0.0, 1.0)
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            trace.record_span("x", 0.0, 1.0)
        disabled = time.perf_counter() - t0
        assert disabled < base * 20 + 0.05


# -- chrome export and validation -------------------------------------------


class TestChromeExport:
    def _spans(self):
        trace.enable()
        req = trace.new_request()
        root = trace.record_span("net.request", 1.0, 2.0, cat="net", req=req)
        trace.record_span("serve.kernel", 1.2, 1.8, req=req, parent=root)
        trace.record_instant("net.accept", cat="net")
        return trace.drain()

    def test_chrome_trace_shape(self):
        spans = self._spans()
        doc = trace.chrome_trace(spans)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in metas] == [
            (os.getpid(), "recoil-serve")
        ]
        xs = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(xs) == 2 and len(instants) == 1
        assert instants[0]["s"] == "t"
        root = next(e for e in xs if e["name"] == "net.request")
        child = next(e for e in xs if e["name"] == "serve.kernel")
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        assert child["args"]["request_id"] == root["args"]["request_id"]
        # microsecond conversion
        assert root["ts"] == pytest.approx(1.0e6)
        assert root["dur"] == pytest.approx(1.0e6)

    def test_validate_accepts_own_export(self):
        doc = trace.chrome_trace(self._spans())
        stats = trace.validate_chrome_trace(doc)
        assert stats["spans"] == 2
        assert stats["requests"] == 1
        assert stats["pids"] == [os.getpid()]

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = trace.write_chrome_trace(str(path), self._spans())
        assert json.loads(path.read_text()) == doc
        stats = trace.validate_chrome_trace_file(str(path))
        assert stats["spans"] == 2

    def test_validate_accepts_balanced_be(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
        ]}
        assert trace.validate_chrome_trace(doc)["spans"] == 1

    @pytest.mark.parametrize("doc,msg", [
        ([], "traceEvents"),
        ({"traceEvents": {}}, "list"),
        ({"traceEvents": [{"ph": "X", "ts": 1, "pid": 1, "tid": 1,
                           "dur": 1}]}, "name"),
        ({"traceEvents": [{"name": "a", "ph": "Z", "ts": 1, "pid": 1,
                           "tid": 1}]}, "phase"),
        ({"traceEvents": [{"name": "a", "ph": "X", "pid": 1,
                           "tid": 1, "dur": 1}]}, "ts"),
        ({"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "pid": 1,
                           "tid": 1, "dur": 1}]}, "ts"),
        ({"traceEvents": [{"name": "a", "ph": "X", "ts": 1, "pid": 1,
                           "tid": 1}]}, "dur"),
        ({"traceEvents": [{"name": "a", "ph": "X", "ts": 1, "pid": 1,
                           "tid": 1, "dur": -2}]}, "dur"),
        ({"traceEvents": [{"name": "a", "ph": "B", "ts": 1, "pid": 1,
                           "tid": 1}]}, "unbalanced"),
        ({"traceEvents": [{"name": "a", "ph": "E", "ts": 1, "pid": 1,
                           "tid": 1}]}, "no open"),
        ({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
        ]}, "does not match"),
    ])
    def test_validate_rejects(self, doc, msg):
        with pytest.raises(TraceError, match=msg):
            trace.validate_chrome_trace(doc)


# -- end-to-end: traced serve through the network stack --------------------


class TestEndToEnd:
    def test_traced_request_stitches_across_layers(self):
        """Traced decodes through the full network stack on the
        default server, with a kernel fault failing one request (its
        batch and then its solo retry both fault): the exported trace
        must be schema-valid, link net -> serve -> kernel spans into
        one tree per request, and record the failed request as
        such."""
        from repro.data import text_surrogate
        from repro.errors import FaultInjected
        from repro.serve import (
            NetConfig, NetServer, RecoilClient, RecoilService,
        )

        data = text_surrogate(20_000, target_entropy=5.29, seed=11)
        trace.enable()
        failed = 0
        with faults.inject_spec("kernel.exec:p=1:times=2"):
            with RecoilService() as service:
                service.put_asset("asset", data, num_splits=32)
                with NetServer(service, NetConfig(port=0)) as server:
                    host, port = server.address
                    with RecoilClient(host, port, seed=3) as client:
                        for _ in range(7):
                            try:
                                out = client.decompress("asset", 4)
                            except FaultInjected:
                                failed += 1
                                continue
                            assert np.array_equal(out, data)
                        doc = client.trace()
        spans = trace.drain()
        trace.disable()
        assert failed == 1

        stats = trace.validate_chrome_trace(doc)
        assert stats["pids"] == [os.getpid()]
        assert stats["requests"] >= 7

        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        for required in ("net.accept", "net.read", "net.request",
                         "serve.request", "serve.kernel", "serve.batch",
                         "net.write"):
            assert required in by_name, f"missing span {required!r}"
        assert [s.args["kernel"] for s in by_name["serve.batch"]] == (
            [service.decode_kernel] * 8
        )

        # stitch check: a serve.request span's parent is a net.request
        # root, and every serve.kernel span hangs off a serve.request.
        net_roots = {s.sid for s in by_name["net.request"]}
        assert any(
            s.parent in net_roots for s in by_name["serve.request"]
        ), "service spans did not link to a network root"
        roots = {s.sid: s for s in by_name["serve.request"]}
        for k in by_name["serve.kernel"]:
            assert k.parent in roots and k.req == roots[k.parent].req
        outcomes = [s.args["ok"] for s in by_name["serve.request"]]
        assert outcomes.count(False) == 1

    def test_stage_histograms_populated_and_consistent(self):
        """metrics_snapshot() gains per-stage quantiles whose means
        sum to (approximately) the end-to-end request mean."""
        from repro.data import text_surrogate
        from repro.serve.service import RecoilService

        data = text_surrogate(20_000, target_entropy=5.29, seed=11)
        with RecoilService() as service:
            service.put_asset("asset", data, num_splits=32)
            for _ in range(4):
                req = service.submit("asset", 4)
                assert np.array_equal(req.result(60), data)
            snap = service.metrics_snapshot()
        stages = snap["stage_latency_ms"]
        assert set(stages) == {
            "shrink", "admission", "batch_window", "kernel", "request",
        }
        for name in ("kernel", "request"):
            assert stages[name]["count"] == 4, name
        parts = sum(
            stages[n]["mean_ms"]
            for n in ("shrink", "admission", "batch_window", "kernel")
        )
        e2e = stages["request"]["mean_ms"]
        # stage sum accounts for the request mean up to delivery slack
        assert parts <= e2e * 1.05 + 0.5
        assert e2e <= parts + 50.0  # loose: scheduling noise

    def test_trace_spans_only_when_enabled(self):
        from repro.data import text_surrogate
        from repro.serve.service import RecoilService

        data = text_surrogate(10_000, target_entropy=5.29, seed=2)
        with RecoilService() as service:
            service.put_asset("asset", data, num_splits=32)
            req = service.submit("asset", 4)
            req.result(60)
            assert trace.snapshot() == []  # disabled: nothing recorded
            trace.enable()
            req = service.submit("asset", 4)
            req.result(60)
            names = {s.name for s in trace.drain()}
        assert "serve.request" in names
        assert "serve.kernel" in names
