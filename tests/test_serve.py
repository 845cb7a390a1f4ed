"""Tests for the batched content-delivery subsystem (repro.serve)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import recoil_decompress, recoil_service, recoil_shrink
from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
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
        assert result.stats.tasks == sum(len(s.tasks) for s in segments)

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
        from repro.parallel.fused import fuse_segments

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
        words, _, _, _ = fuse_segments(segments)
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
        assert v1.tasks and v1.cost_symbols > 0

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
        assert geometry_bucket(r1.variant.tasks, asset.lanes) > (
            geometry_bucket(r16.variant.tasks, asset.lanes)
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
        batcher = RequestBatcher(BatchPolicy(window_s=0.0))
        reqs = [_request(store, c) for c in (16, 1, 16, 1, 16)]
        for r in reqs:
            batcher.add(r)
        first = batcher.pop_batch()
        assert first == [reqs[0], reqs[2], reqs[4]]
        second = batcher.pop_batch()
        assert second == [reqs[1], reqs[3]]
        assert len(batcher) == 0

    def test_lane_budget_saturates_batch(self, store):
        policy = BatchPolicy(window_s=60.0, max_task_lanes=40)
        batcher = RequestBatcher(policy)
        for _ in range(4):
            batcher.add(_request(store, 16))  # 16 tasks each
        assert batcher.ready(now=batcher._pending[0].enqueued_at)
        batch = batcher.pop_batch()
        assert len(batch) == 2  # 32 lanes fit, 48 would not
        assert len(batcher) == 2

    def test_oversized_single_request_dispatches_alone(self, store):
        policy = BatchPolicy(window_s=0.0, max_task_lanes=4)
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
        config = ServiceConfig(batch_window_s=0.05)
        with RecoilService(store=store, config=config) as svc:
            requests = [svc.submit("hero", 8) for _ in range(6)]
            for request in requests:
                assert np.array_equal(request.result(120), payload)
            snap = svc.metrics_snapshot()
        assert snap["batches"]["largest_requests"] >= 2
        assert snap["requests"]["completed"] == 6

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
        cfg = ServiceConfig(decode_kernel=kernel_backend)
        with RecoilService(config=cfg) as svc:
            assert svc.decode_kernel == kernel_backend
            svc.put_asset("a", payload, num_splits=64)
            requests = [svc.submit("a", c) for c in (1, 4, 16, 4, 1)]
            for req in requests:
                assert np.array_equal(req.result(120), payload)
            snap = svc.metrics_snapshot()
        assert snap["resilience"]["kernel"] == {
            "configured": kernel_backend,
            "effective": kernel_backend,
        }

    def test_invalid_kernel_config_rejected(self):
        # Retired backend strings ("process", "fused+compiled", ...)
        # are unknown kernels, on the config and on the CLI flag.
        for bad in ("quantum", "process", "thread", "fused+compiled"):
            with pytest.raises(ServeError):
                ServiceConfig(decode_kernel=bad)
        from repro.cli import main

        for cmd in ("serve", "serve-bench", "load-bench"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--kernel", "process"])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "2"])
        assert exc.value.code == 2

    def test_admission_backpressure_times_out(self, store):
        # Stall the dispatcher with a huge batch window so the first
        # request pins the in-flight budget; the second must then hit
        # the admission timeout.
        config = ServiceConfig(
            batch_window_s=60.0,
            max_inflight_symbols=1,
            admission_timeout_s=0.05,
        )
        svc = RecoilService(store=store, config=config)
        try:
            first = svc.submit("hero", 2)
            with pytest.raises(AdmissionError):
                svc.submit("hero", 2)
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
        config = ServiceConfig(batch_window_s=0.005)
        capacities = (1, 2, 4, 8, 16, 64)
        errors: list[Exception] = []

        with RecoilService(store=store, config=config) as svc:
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
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
            snap = svc.metrics_snapshot()

        assert not errors, errors
        assert snap["requests"]["completed"] == 48
        assert snap["requests"]["failed"] == 0
        assert snap["batches"]["largest_requests"] >= 2  # fusion happened


class TestMetricsUnderConcurrency:
    """Satellite: ServeMetrics must stay consistent while clients and
    snapshot readers race (no torn reads, counters reconcile)."""

    def test_snapshots_consistent_while_submitters_race(
        self, store, payload
    ):
        clients, per_client = 8, 4
        config = ServiceConfig(batch_window_s=0.005)
        errors: list[Exception] = []
        violations: list[str] = []
        done = threading.Event()

        with RecoilService(store=store, config=config) as svc:

            def client(worker: int) -> None:
                try:
                    for i in range(per_client):
                        cap = (worker + i) % 16 + 1
                        out = svc.decompress("hero", cap, timeout=120)
                        if not np.array_equal(out, payload):
                            raise AssertionError("bit mismatch")
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
            for t in watchers + threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            done.set()
            for t in watchers:
                t.join(timeout=30)
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

        config = ServiceConfig(batch_window_s=0.005)
        with RecoilService(store=store, config=config) as svc:
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
