"""Tests for the batched content-delivery subsystem (repro.serve)."""

from __future__ import annotations

import contextlib
import os
import sys
import threading

import numpy as np
import pytest

from repro import faults
from repro.core import recoil_decompress, recoil_service, recoil_shrink
from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.core.serialization import serialize_metadata
from repro.errors import AdmissionError, MetadataError, ServeError
from repro.parallel.buffers import ScratchArena
from repro.parallel.fused import StreamSegment, fused_run_multi
from repro.serve import (
    AssetStore,
    BatchPolicy,
    RecoilService,
    RequestBatcher,
    ServiceConfig,
    ShrinkCache,
)
from repro.serve.batcher import DecodeRequest, geometry_bucket

from conftest import ParkedDispatcher
from golden_cases import rans_cases
from wide_metadata import widened_container

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def payload(skewed_bytes):
    return skewed_bytes[:30_000]


@pytest.fixture(scope="module")
def store(payload, model11):
    store = AssetStore(default_num_splits=64)
    store.put("hero", payload, model=model11)
    return store


@pytest.fixture()
def service(store):
    svc = RecoilService(store=store)
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# Kernel layer: multi-buffer fusion
# ---------------------------------------------------------------------------


class TestFusedMulti:
    def test_mixed_assets_and_capacities_bit_exact(
        self, skewed_bytes, provider11
    ):
        enc = RecoilEncoder(provider11)
        a = enc.encode(skewed_bytes[:20_000], num_threads=16)
        b = enc.encode(skewed_bytes[20_000:29_000], num_threads=8)
        segments = []
        for encoded, caps in ((a, (1, 3, 16)), (b, (2, 8))):
            for cap in caps:
                md = encoded.metadata.combine(cap)
                tasks = build_thread_tasks(
                    md, len(encoded.words), encoded.final_states
                )
                segments.append(
                    StreamSegment(
                        encoded.words, tasks, encoded.num_symbols
                    )
                )
        expected = [skewed_bytes[:20_000]] * 3 + [
            skewed_bytes[20_000:29_000]
        ] * 2

        result = fused_run_multi(
            provider11, 32, segments, ScratchArena()
        )
        for segment_out, exp in zip(result.segment_outputs(), expected):
            assert np.array_equal(segment_out, exp)
        assert result.stats.tasks == sum(
            s.columns.num_tasks for s in segments
        )

    def test_single_segment_matches_plain_run(
        self, skewed_bytes, provider11
    ):
        enc = RecoilEncoder(provider11).encode(
            skewed_bytes[:10_000], num_threads=4
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        result = fused_run_multi(
            provider11,
            32,
            [StreamSegment(enc.words, tasks, enc.num_symbols)],
            ScratchArena(),
        )
        assert np.array_equal(result.out, skewed_bytes[:10_000])

    def test_empty_batch(self, provider11):
        result = fused_run_multi(provider11, 32, [], ScratchArena())
        assert result.out.size == 0
        assert result.slices == []

    def test_shared_word_buffer_deduped(self, skewed_bytes, provider11):
        from repro.parallel.fused import _stack_streams

        enc = RecoilEncoder(provider11).encode(
            skewed_bytes[:10_000], num_threads=8
        )
        segments = []
        for cap in (2, 4, 4):
            md = enc.metadata.combine(cap)
            tasks = build_thread_tasks(
                md, len(enc.words), enc.final_states
            )
            segments.append(
                StreamSegment(enc.words, tasks, enc.num_symbols)
            )
        words, _, _ = _stack_streams(segments)
        assert len(words) == len(enc.words)  # one copy, not three
        result = fused_run_multi(
            provider11, 32, segments, ScratchArena()
        )
        for sl in result.slices:
            assert np.array_equal(result.out[sl], skewed_bytes[:10_000])


# ---------------------------------------------------------------------------
# Store layer
# ---------------------------------------------------------------------------


class TestAssetStore:
    def test_unknown_asset(self, store):
        with pytest.raises(ServeError):
            store.get("nope")
        with pytest.raises(ServeError):
            store.shrunk("nope", 4)

    def test_shrunk_blob_matches_recoil_shrink(self, store):
        master = store.get("hero").blob
        for cap in (1, 4, 16):
            variant, _ = store.shrunk("hero", cap)
            assert variant.blob == recoil_shrink(master, cap)

    def test_cache_hit_on_repeat(self, store):
        v1, hit1 = store.shrunk("hero", 7)
        v2, hit2 = store.shrunk("hero", 7)
        assert v2 is v1 and hit2
        assert v1.columns.num_tasks and v1.cost_symbols > 0

    def test_capacity_clamped_to_master(self, store):
        asset = store.get("hero")
        v_huge, _ = store.shrunk("hero", 10_000)
        v_max, hit = store.shrunk("hero", asset.max_capacity)
        assert v_max is v_huge and hit  # one cache entry for both

    def test_invalid_capacity(self, store):
        with pytest.raises(MetadataError):
            store.shrunk("hero", 0)

    def test_replacing_asset_invalidates_cache(self, payload, model11):
        store = AssetStore(default_num_splits=16)
        store.put("a", payload[:5_000], model=model11)
        v1, _ = store.shrunk("a", 2)
        store.put("a", payload[5_000:12_000], model=model11)
        v2, hit = store.shrunk("a", 2)
        assert not hit and v2 is not v1
        # Variants pin the asset they were derived from.
        assert v2.asset is store.get("a")
        assert v1.asset is not v2.asset

    def test_put_rejects_zero_splits(self, payload, model11):
        from repro.errors import EncodeError

        store = AssetStore()
        with pytest.raises(EncodeError):
            store.put("a", payload[:5_000], num_splits=0, model=model11)

    def test_lru_eviction(self, payload, model11):
        store = AssetStore(shrink_cache_entries=2, default_num_splits=32)
        store.put("a", payload[:5_000], model=model11)
        for cap in (1, 2, 3):
            store.shrunk("a", cap)
        assert len(store.cache) == 2
        assert store.cache.evictions == 1
        _, hit = store.shrunk("a", 1)  # evicted: recomputed
        assert not hit


class TestMetadataSplice:
    """Variants splice the master at the parsed metadata offsets;
    every variant is head + combined metadata + payload."""

    @pytest.mark.parametrize("name", [c["name"] for c in rans_cases()])
    def test_head_ends_at_golden_metadata_offset(self, name):
        case = next(c for c in rans_cases() if c["name"] == name)
        with open(os.path.join(GOLDEN_DIR, f"{name}.bin"), "rb") as f:
            blob = f.read()
        provider = None if case["provider"].is_static else case["provider"]
        asset = AssetStore().put_container("g", blob, provider=provider)
        parsed = asset.parsed
        section = serialize_metadata(parsed.metadata)
        assert parsed.metadata_offset + len(section) == parsed.payload_offset
        assert blob[parsed.metadata_offset : parsed.payload_offset] == section
        assert parsed.splice(blob, section) == blob

    def test_non_minimal_widths_serve_bit_exact(self, tmp_path):
        """Put, then hydrated from disk after an eviction: the master
        stays byte for byte and every variant decodes."""
        data, minimal, widened = widened_container()
        store = AssetStore(
            store_dir=tmp_path / "s", resident_bytes=len(widened) + 1
        )
        store.put_container("wide", widened)
        with RecoilService(store=store) as svc:
            for hydrated in (False, True):
                if hydrated:
                    store.put_container("other", minimal)  # evicts "wide"
                    hydrations = store.hydrations
                assert store.get("wide").blob == widened
                for cap in (2, 4, 8):
                    variant, _ = store.shrunk("wide", cap)
                    assert variant.blob == recoil_shrink(minimal, cap)
                    out = recoil_decompress(variant.blob)
                    assert np.array_equal(out, data)
                    assert np.array_equal(svc.decompress("wide", cap), data)
            assert store.hydrations > hydrations


class TestShrinkCache:
    def test_lru_order(self):
        cache = ShrinkCache(max_entries=2)
        cache.put(("a", 1), "x")
        cache.put(("a", 2), "y")
        assert cache.get(("a", 1)) == "x"  # refresh (a, 1)
        cache.put(("a", 3), "z")  # evicts (a, 2)
        assert cache.get(("a", 2)) is None
        assert cache.get(("a", 1)) == "x"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ServeError):
            ShrinkCache(max_entries=0)
        with pytest.raises(ServeError):
            ShrinkCache(max_bytes=0)

    def test_byte_bound_evicts_lru(self, store):
        v1, _ = store.shrunk("hero", 1)
        v2, _ = store.shrunk("hero", 2)
        budget = max(len(v1.blob), len(v2.blob)) + 1  # fits one
        cache = ShrinkCache(max_entries=64, max_bytes=budget)
        cache.put(("hero", 1), v1)
        cache.put(("hero", 2), v2)  # over bytes: (hero, 1) goes
        assert cache.get(("hero", 1)) is None
        assert cache.get(("hero", 2)) is v2
        snap = cache.snapshot()
        assert snap["bytes"] == len(v2.blob) == cache.bytes
        assert snap["evictions"] == {
            "total": 1, "capacity": 0, "bytes": 1,
        }

    def test_invalidate_restores_byte_accounting(self, store):
        v1, _ = store.shrunk("hero", 1)
        cache = ShrinkCache(max_entries=4, max_bytes=10 * len(v1.blob))
        cache.put(("hero", 1), v1)
        cache.invalidate("hero")
        assert cache.bytes == 0 and len(cache) == 0

    def test_service_snapshot_exposes_cache_bytes(self, service):
        snap = service.metrics_snapshot()
        cache = snap["store"]["shrink_cache"]
        assert cache["bytes"] >= 0
        assert set(cache["evictions"]) == {"total", "capacity", "bytes"}


# ---------------------------------------------------------------------------
# Batcher layer
# ---------------------------------------------------------------------------


def _request(store, capacity):
    variant, _ = store.shrunk("hero", capacity)
    return DecodeRequest(store.get("hero"), variant)


class TestBatcher:
    def test_geometry_bucket_separates_capacities(self, store):
        r1 = _request(store, 1)
        r16 = _request(store, 16)
        r16b = _request(store, 16)
        assert r1.fuse_key != r16.fuse_key
        assert r16.fuse_key == r16b.fuse_key
        asset = store.get("hero")
        assert geometry_bucket(r1.variant.columns, asset.lanes) > (
            geometry_bucket(r16.variant.columns, asset.lanes)
        )

    def test_same_model_different_assets_share_fuse_key(
        self, payload, model11
    ):
        # Every put parses its own provider from the embedded model;
        # the content fingerprint must still let equal models fuse.
        store = AssetStore(default_num_splits=16)
        store.put("a", payload[:8_000], model=model11)
        store.put("b", payload[8_000:16_000], model=model11)
        va, _ = store.shrunk("a", 4)
        vb, _ = store.shrunk("b", 4)
        ra = DecodeRequest(va.asset, va)
        rb = DecodeRequest(vb.asset, vb)
        assert ra.asset.provider is not rb.asset.provider
        assert ra.fuse_key == rb.fuse_key

    def test_pop_batch_keeps_foreign_keys_queued(self, store):
        batcher = RequestBatcher(BatchPolicy())
        reqs = [_request(store, c) for c in (16, 1, 16, 1, 16)]
        for r in reqs:
            batcher.add(r)
        first = batcher.pop_batch()
        assert first == [reqs[0], reqs[2], reqs[4]]
        second = batcher.pop_batch()
        assert second == [reqs[1], reqs[3]]
        assert len(batcher) == 0

    def test_lane_budget_saturates_batch(self, store):
        policy = BatchPolicy(max_task_lanes=40)
        batcher = RequestBatcher(policy)
        for _ in range(4):
            batcher.add(_request(store, 16))  # 16 tasks each
        batch = batcher.pop_batch()
        assert sum(r.task_lanes for r in batch) <= policy.max_task_lanes
        assert len(batch) == 2  # 32 lanes fit, 48 would not
        assert len(batcher) == 2

    def test_oversized_single_request_dispatches_alone(self, store):
        policy = BatchPolicy(max_task_lanes=4)
        batcher = RequestBatcher(policy)
        batcher.add(_request(store, 16))
        assert batcher.pop_batch()  # never starves

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_requests=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_task_lanes=0)


# ---------------------------------------------------------------------------
# Service layer
# ---------------------------------------------------------------------------


class TestService:
    @pytest.mark.parametrize("capacity", [1, 3, 16, 1024])
    def test_decompress_bit_exact(self, service, payload, capacity):
        out = service.decompress("hero", capacity, timeout=120)
        assert np.array_equal(out, payload)

    def test_serve_bytes_decodable(self, service, payload):
        blob = service.serve("hero", 4)
        assert np.array_equal(recoil_decompress(blob), payload)

    def test_concurrent_submits_fuse(self, store, payload):
        # Dispatch on idle: the six same-key requests that queue while
        # the dispatcher is busy go out as exactly one batch of six.
        with RecoilService(store=store) as svc:
            with ParkedDispatcher(svc, "hero", 8):
                requests = [svc.submit("hero", 8) for _ in range(6)]
            for request in requests:
                assert np.array_equal(request.result(120), payload)
            snap = svc.metrics_snapshot()
        assert snap["batches"]["largest_requests"] >= 2
        assert snap["requests"]["completed"] == 6 + 1  # + the blocker
        assert snap["batches"]["dispatched"] == 2  # the blocker, then 6
        assert snap["batches"]["largest_requests"] == 6
        assert snap["batches"]["batched_requests"] == 6

    def test_unbatched_mode_serves_singly(self, store, payload):
        config = ServiceConfig(batching=False)
        with RecoilService(store=store, config=config) as svc:
            requests = [svc.submit("hero", 4) for _ in range(3)]
            for request in requests:
                assert np.array_equal(request.result(120), payload)
            snap = svc.metrics_snapshot()
        assert snap["batches"]["largest_requests"] == 1
        assert snap["batches"]["dispatched"] == 3

    def test_unknown_asset(self, service):
        with pytest.raises(ServeError):
            service.decompress("nope", 4)

    def test_kernel_round_trip(self, payload, kernel_backend):
        """The service runs, and reports, the host's kernel."""
        with RecoilService() as svc:
            assert svc.decode_kernel == kernel_backend
            svc.put_asset("a", payload, num_splits=64)
            requests = [svc.submit("a", c) for c in (1, 4, 16, 4, 1)]
            for req in requests:
                assert np.array_equal(req.result(120), payload)
            snap = svc.metrics_snapshot()
        assert snap["resilience"]["kernel"] == kernel_backend

    def test_invalid_kernel_config_rejected(self):
        # Host detection is the only kernel choice: neither the config
        # nor any serving command takes one.
        with pytest.raises(TypeError):
            ServiceConfig(decode_kernel="compiled")
        from repro.cli import main

        for cmd in ("serve", "serve-bench", "load-bench"):
            for kernel in ("compiled", "numpy"):
                with pytest.raises(SystemExit) as exc:
                    main([cmd, "--kernel", kernel])
                assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "2"])
        assert exc.value.code == 2

    def test_admission_backpressure_times_out(self, store):
        # Park the dispatcher inside the blocker's batch: the blocker
        # and the queued first request pin the in-flight budget, so the
        # second must hit the admission timeout.
        cost = store.shrunk("hero", 2)[0].cost_symbols
        config = ServiceConfig(
            max_inflight_symbols=2 * cost,
            admission_timeout_s=0.05,
        )
        svc = RecoilService(store=store, config=config)
        try:
            with ParkedDispatcher(svc, "hero", 2) as park:
                first = svc.submit("hero", 2)
                with pytest.raises(AdmissionError):
                    svc.submit("hero", 2)
                # Close while parked: release only once intake stopped,
                # so the first request is still pending at close().
                closer = threading.Thread(target=svc.close)
                closer.start()
                park.wait_until(lambda: svc.closed)
            closer.join(30)
        finally:
            svc.close()
        # close() fails the still-pending first request.
        with pytest.raises(ServeError):
            first.result(1)
        snap = svc.metrics_snapshot()
        assert snap["admission"]["rejected"] == 1
        assert snap["admission"]["waits"] == 1

    def test_submit_after_close(self, store):
        svc = RecoilService(store=store)
        svc.close()
        assert svc.closed
        with pytest.raises(ServeError):
            svc.submit("hero", 2)
        svc.close()  # idempotent
        # A refused submit leaves the counters reconciled.
        snap = svc.metrics_snapshot()
        assert snap["requests"]["submitted"] == 0
        assert snap["shrink"]["cache_hits"] + (
            snap["shrink"]["cache_misses"]
        ) == 0

    def test_facade_builds_and_owns_assets(self, payload):
        svc = recoil_service({"a": payload[:4_000]}, num_splits=8)
        try:
            assert np.array_equal(
                svc.decompress("a", 4, timeout=120), payload[:4_000]
            )
        finally:
            svc.close()

    def test_sixteen_thread_stress_bit_exact(self, store, payload):
        """Satellite: hammer one service from 16 client threads."""
        capacities = (1, 2, 4, 8, 16, 64)
        errors: list[Exception] = []

        with RecoilService(store=store) as svc:
            barrier = threading.Barrier(16)

            def client(worker: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    for i in range(3):
                        cap = capacities[(worker + i) % len(capacities)]
                        out = svc.decompress("hero", cap, timeout=120)
                        if not np.array_equal(out, payload):
                            raise AssertionError(
                                f"bit mismatch (worker {worker}, "
                                f"capacity {cap})"
                            )
                except Exception as exc:  # propagate to main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(w,))
                for w in range(16)
            ]
            # Every client's first request queues behind a parked
            # batch, so same-capacity requests fuse.
            with ParkedDispatcher(svc, "hero") as park:
                for t in threads:
                    t.start()
                park.wait_until(lambda: park.queued == 16)
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
            snap = svc.metrics_snapshot()

        assert not errors, errors
        assert snap["requests"]["completed"] == 48 + 1  # + the blocker
        assert snap["requests"]["failed"] == 0
        assert snap["batches"]["largest_requests"] >= 2  # fusion happened


class TestMetricsUnderConcurrency:
    """Satellite: ServeMetrics must stay consistent while clients and
    snapshot readers race (no torn reads, counters reconcile)."""

    def test_snapshots_consistent_while_submitters_race(
        self, store, payload
    ):
        clients, per_client = 8, 4
        errors: list[Exception] = []
        violations: list[str] = []
        done = threading.Event()
        returned_lock = threading.Lock()
        returned = 0

        with RecoilService(store=store) as svc:

            def client(worker: int) -> None:
                nonlocal returned
                try:
                    for i in range(per_client):
                        cap = (worker + i) % 16 + 1
                        out = svc.decompress("hero", cap, timeout=120)
                        if not np.array_equal(out, payload):
                            raise AssertionError("bit mismatch")
                        # Every returned result was counted before it
                        # was handed over, so completed never lags
                        # the results callers hold.
                        with returned_lock:
                            returned += 1
                            held = returned
                        completed = svc.metrics_snapshot()["requests"][
                            "completed"
                        ]
                        if completed < held:
                            violations.append(
                                f"completed {completed} < {held} returned"
                            )
                except Exception as exc:
                    errors.append(exc)

            def watcher() -> None:
                # Snapshot continuously while traffic flows; every
                # view must be internally consistent.
                while not done.is_set():
                    snap = svc.metrics_snapshot()
                    reqs = snap["requests"]
                    if reqs["completed"] + reqs["failed"] > reqs[
                        "submitted"
                    ]:
                        violations.append(
                            f"finished > submitted: {reqs}"
                        )
                    flat = [
                        v
                        for section in snap.values()
                        for v in (
                            section.values()
                            if isinstance(section, dict)
                            else [section]
                        )
                        if isinstance(v, (int, float))
                    ]
                    if any(v < 0 for v in flat):
                        violations.append(f"negative counter: {snap}")

            threads = [
                threading.Thread(target=client, args=(w,))
                for w in range(clients)
            ]
            watchers = [
                threading.Thread(target=watcher, daemon=True)
                for _ in range(2)
            ]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in watchers + threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
            finally:
                sys.setswitchinterval(switch)
                done.set()
            for t in watchers:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads + watchers)
            snap = svc.metrics_snapshot()

        assert not errors, errors
        assert not violations, violations[:3]
        total = clients * per_client
        assert snap["requests"]["submitted"] == total
        assert snap["requests"]["completed"] == total
        assert snap["requests"]["failed"] == 0
        # The resilience section exists and is all-zero on a clean run.
        res = dict(snap["resilience"])
        res.pop("kernel")
        assert all(v == 0 for v in res.values()), res


class TestCompletionAccounting:
    """A request's result never becomes visible before
    ``metrics_snapshot()`` counts it: a done-callback on each queued
    request's future snapshots the metrics at the instant the result
    is handed over, on the batch path and on the solo-retry path."""

    @pytest.mark.parametrize("path", ["batch", "solo_retry"])
    def test_result_visible_only_once_counted(self, store, path):
        queued = 5
        seen: list[dict] = []
        with RecoilService(store=store) as svc:

            def probe(_future) -> None:
                seen.append(svc.metrics_snapshot()["requests"])

            with contextlib.ExitStack() as stack:
                if path == "solo_retry":
                    # The parked blocker is the rule's first hit; the
                    # queued batch is its second and fails, so every
                    # request is rerun alone.
                    stack.enter_context(
                        faults.inject(faults.BATCH_DISPATCH, nth=2)
                    )
                with ParkedDispatcher(svc, "hero"):
                    requests = [
                        svc.submit("hero", 4) for _ in range(queued)
                    ]
                    for req in requests:
                        req._future.add_done_callback(probe)
                for req in requests:
                    req.result(120)
            snap = svc.metrics_snapshot()

        # The blocker completed first; the k-th queued request must
        # already be counted when its own result is handed over.
        assert [s["completed"] for s in seen] == list(
            range(2, queued + 2)
        )
        assert snap["requests"]["completed"] == queued + 1
        retries = 0 if path == "batch" else queued
        assert snap["resilience"]["poison_retries"] == retries
        # The blocker's batch, the queued batch, and the solo reruns.
        assert snap["batches"]["dispatched"] == 2 + retries


class TestNetworkSnapshotInvariants:
    """Satellite: with a network front-end attached,
    ``metrics_snapshot()["network"]`` must stay internally consistent
    while connections churn — every snapshot taken mid-storm obeys the
    NetMetrics invariants, and the final one reconciles exactly."""

    def test_no_network_section_without_frontend(self, service):
        assert service.metrics_snapshot()["network"] is None

    def test_invariants_under_concurrent_connections(self, store, payload):
        from repro.serve import NetConfig, NetServer, RecoilClient

        clients, per_client = 6, 3
        errors: list[Exception] = []
        violations: list[str] = []
        done = threading.Event()

        def check(net: dict) -> None:
            conns = net["connections"]
            if conns["opened"] != conns["closed"] + conns["active"]:
                violations.append(f"opened != closed + active: {conns}")
            if conns["peak_active"] < conns["active"]:
                violations.append(f"peak < active: {conns}")
            kills = net["deadline_kills"]
            if kills["total"] != kills["read"] + kills["write"]:
                violations.append(f"kill total torn: {kills}")
            flat = [
                v
                for section in net.values()
                for v in (
                    section.values()
                    if isinstance(section, dict)
                    else [section]
                )
                if isinstance(v, (int, float))
            ]
            if any(v < 0 for v in flat):
                violations.append(f"negative counter: {net}")

        with RecoilService(store=store) as svc:
            with NetServer(svc, NetConfig(port=0)) as server:
                host, port = server.address

                def client(worker: int) -> None:
                    try:
                        with RecoilClient(host, port, timeout_s=60) as c:
                            for i in range(per_client):
                                out = c.decompress("hero", 1 + (worker + i) % 4)
                                if not np.array_equal(out, payload):
                                    raise AssertionError("bit mismatch")
                    except Exception as exc:  # propagate to main thread
                        errors.append(exc)

                def watcher() -> None:
                    # Snapshot continuously while connections churn.
                    while not done.is_set():
                        check(svc.metrics_snapshot()["network"])

                threads = [
                    threading.Thread(target=client, args=(w,))
                    for w in range(clients)
                ]
                watchers = [
                    threading.Thread(target=watcher, daemon=True)
                    for _ in range(2)
                ]
                for t in watchers + threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
                assert not any(t.is_alive() for t in threads)
                done.set()
                for t in watchers:
                    t.join(timeout=30)
            net = svc.metrics_snapshot()["network"]

        assert not errors, errors
        assert not violations, violations[:3]
        check(net)  # the final view obeys the same invariants...
        # ... and reconciles exactly after shutdown.
        assert net["connections"]["active"] == 0
        assert net["connections"]["opened"] == net["connections"]["closed"]
        assert net["connections"]["opened"] == clients
        assert net["requests"]["ok"] == clients * per_client
        assert net["requests"]["failed"] == 0
        assert net["protocol_errors"] == 0


class TestCloseReentrancy:
    """Satellite fix: ``RecoilService.close()`` is reachable from
    signal handlers and racing threads (the network front-end's drain
    path) — it must be idempotent, safe under a racing double-close,
    and re-entrant on the winner's own thread."""

    def test_racing_closers_none_raise(self, store):
        svc = RecoilService(store=store)
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def closer() -> None:
            try:
                barrier.wait(timeout=30)
                svc.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert svc.closed

    def test_second_closer_waits_for_winner(self, store):
        # The loser must not return before the winner's teardown is
        # done (a drain path that proceeds while the service is only
        # half-closed would race the dispatcher).
        svc = RecoilService(store=store)
        in_teardown = threading.Event()
        release = threading.Event()
        real_drain = svc._batcher.drain

        def slow_drain():
            in_teardown.set()
            release.wait(30)
            return real_drain()

        svc._batcher.drain = slow_drain
        loser_returned = threading.Event()
        winner = threading.Thread(target=svc.close)
        winner.start()
        assert in_teardown.wait(10)

        def loser() -> None:
            svc.close()
            loser_returned.set()

        t = threading.Thread(target=loser)
        t.start()
        # While the winner is wedged in teardown, the loser waits.
        assert not loser_returned.wait(0.2)
        release.set()
        winner.join(30)
        t.join(30)
        assert loser_returned.is_set()
        assert svc.closed

    def test_reentrant_close_on_winner_thread_returns(self, store):
        # A signal handler interrupting the winner's own teardown
        # re-enters close() on the same thread: it must return
        # immediately (any wait would deadlock the teardown it is
        # waiting for).
        svc = RecoilService(store=store)
        reentered: list[bool] = []
        real_drain = svc._batcher.drain

        def drain_and_reenter():
            svc.close()  # re-entrant on the winner's thread
            reentered.append(True)
            return real_drain()

        svc._batcher.drain = drain_and_reenter
        svc.close()  # must complete despite the re-entry
        assert reentered
        assert svc.closed
        svc.close()  # still idempotent afterwards
