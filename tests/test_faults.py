"""Chaos suite: drive every registered fault point and assert recovery.

The resilience contract (DESIGN.md §15) in test form:

- the fault registry itself is deterministic, scoped, and complete;
- a poisoned request fails alone — batchmates decode bit-identically,
  and a one-shot batch fault never fails a request, whatever the
  batch size;
- expired deadlines are enforced before kernel dispatch;
- close() never hangs on a wedged dispatcher;
- under concurrent clients with faults armed at the dispatcher, the
  per-request path and the kernel, every non-poisoned request still
  returns bytes identical to ``recoil_decompress``, and no threads
  are left behind.

Probabilistic rules are seeded from ``REPRO_CHAOS_SEED`` (default 0)
so a CI failure is reproducible by exporting the seed it printed.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.api import recoil_decompress
from repro.errors import DeadlineError, FaultInjected, ReproError, ServeError
from repro.serve import RecoilService, ServiceConfig

from conftest import ParkedDispatcher

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _disarm():
    """No rule may leak between tests, pass or fail."""
    yield
    faults.reset()


@pytest.fixture(scope="module")
def payload() -> np.ndarray:
    r = np.random.default_rng(7)
    return np.minimum(np.floor(r.exponential(11.0, 24_000)), 255).astype(
        np.uint8
    )


# ---------------------------------------------------------------------------
# The registry itself.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_disabled_is_a_no_op(self):
        assert not faults.enabled()
        faults.fire(faults.KERNEL_EXEC)  # must not raise
        assert not faults.triggered(faults.NET_STALL)

    def test_nth_trigger_fires_exactly_once(self):
        with faults.inject(faults.STORE_ENCODE, nth=3) as rule:
            faults.fire(faults.STORE_ENCODE)
            faults.fire(faults.STORE_ENCODE)
            with pytest.raises(FaultInjected):
                faults.fire(faults.STORE_ENCODE)
            # times defaults to 1 for nth rules: never again.
            faults.fire(faults.STORE_ENCODE)
            assert (rule.hits, rule.fires) == (3, 1)

    def test_probability_is_deterministic_per_seed(self):
        def sequence() -> list[bool]:
            out = []
            with faults.inject(
                faults.BATCH_DISPATCH, p=0.5, seed=CHAOS_SEED
            ):
                for _ in range(64):
                    try:
                        faults.fire(faults.BATCH_DISPATCH)
                        out.append(False)
                    except FaultInjected:
                        out.append(True)
            return out

        first, second = sequence(), sequence()
        assert first == second
        assert any(first) and not all(first)

    def test_times_caps_probabilistic_rules(self):
        fired = 0
        with faults.inject(faults.KERNEL_EXEC, p=1.0, times=2):
            for _ in range(10):
                try:
                    faults.fire(faults.KERNEL_EXEC)
                except FaultInjected:
                    fired += 1
        assert fired == 2

    def test_key_filter_targets_one_asset(self):
        with faults.inject(
            faults.SERVE_REQUEST, p=1.0, key="bad"
        ) as rule:
            faults.fire(faults.SERVE_REQUEST, key="good")
            faults.fire(faults.SERVE_REQUEST)  # keyless call: no match
            with pytest.raises(FaultInjected):
                faults.fire(faults.SERVE_REQUEST, key="bad")
            # Non-matching calls are not even counted as hits.
            assert (rule.hits, rule.fires) == (1, 1)

    def test_context_exit_disarms_even_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.inject(faults.KERNEL_EXEC, p=1.0):
                assert faults.enabled()
                raise RuntimeError("boom")
        assert not faults.enabled()
        faults.fire(faults.KERNEL_EXEC)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.FaultRule("made.up", p=0.5)

    def test_trigger_validation(self):
        with pytest.raises(ValueError):
            faults.FaultRule(faults.KERNEL_EXEC)  # neither p nor nth
        with pytest.raises(ValueError):
            faults.FaultRule(faults.KERNEL_EXEC, p=0.5, nth=2)  # both
        with pytest.raises(ValueError):
            faults.FaultRule(faults.KERNEL_EXEC, p=1.5)
        with pytest.raises(ValueError):
            faults.FaultRule(faults.KERNEL_EXEC, nth=0)

    def test_default_exceptions_match_the_surface(self):
        # socket/disk points must raise OSError (what the real failure
        # raises there), everything else the typed FaultInjected.
        for point in (
            faults.NET_ACCEPT,
            faults.NET_READ,
            faults.NET_WRITE,
            faults.DISK_WRITE,
            faults.DISK_FSYNC,
            faults.DISK_READ,
        ):
            exc = faults.FaultRule(point, p=1.0).make_exception()
            assert isinstance(exc, OSError)
        exc = faults.FaultRule(faults.KERNEL_EXEC, p=1.0).make_exception()
        assert isinstance(exc, FaultInjected)

    def test_exception_override(self):
        with faults.inject(
            faults.STORE_ENCODE, nth=1, exc=MemoryError
        ):
            with pytest.raises(MemoryError):
                faults.fire(faults.STORE_ENCODE)

    def test_registered_points_is_complete(self):
        points = faults.registered_points()
        assert set(points) == set(faults.POINTS)
        assert all(points.values())

    def test_snapshot_reports_counters(self):
        with faults.inject(faults.NET_READ, nth=1):
            with pytest.raises(OSError):
                faults.fire(faults.NET_READ)
            (snap,) = faults.snapshot()
            assert snap["point"] == faults.NET_READ
            assert snap["fires"] == 1
        assert faults.snapshot() == []


class TestSpecs:
    def test_parse_spec_round_trip(self):
        rules = faults.parse_spec(
            "kernel.exec:nth=3,net.read:p=0.05:seed=7,"
            "serve.request:p=1:key=bad:times=2"
        )
        assert rules == [
            {"point": "kernel.exec", "nth": 3},
            {"point": "net.read", "p": 0.05, "seed": 7},
            {"point": "serve.request", "p": 1.0, "key": "bad", "times": 2},
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "nope.nope:p=1",
            "net.read",  # no trigger
            "net.read:p=2",
            "net.read:wat=1",
            "net.read:p",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            faults.parse_spec(spec)

    def test_inject_spec_arms_and_disarms(self):
        with faults.inject_spec("store.encode:nth=1"):
            assert faults.enabled()
            with pytest.raises(FaultInjected):
                faults.fire(faults.STORE_ENCODE)
        assert not faults.enabled()


# ---------------------------------------------------------------------------
# Poison isolation on the serve path.
# ---------------------------------------------------------------------------


class TestPoisonIsolation:
    def test_poison_fails_alone_batchmates_intact(self, payload):
        from repro.rans.model import SymbolModel

        cfg = ServiceConfig(max_batch_requests=64)
        with RecoilService(config=cfg) as svc:
            # One shared model + equal sizes => equal fuse keys, so
            # the poisoned request shares a batch with the innocents.
            model = SymbolModel.from_data(payload, 11, alphabet_size=256)
            svc.put_asset("good", payload, num_splits=32, model=model)
            svc.put_asset(
                "bad", np.roll(payload, 500), num_splits=32, model=model
            )
            reference = recoil_decompress(svc.serve("good", 4))
            with faults.inject(faults.SERVE_REQUEST, p=1.0, key="bad"):
                # Queued behind a parked batch, the four go out as one.
                with ParkedDispatcher(svc, "good"):
                    innocents = [svc.submit("good", 4) for _ in range(3)]
                    poisoned = svc.submit("bad", 4)
                for req in innocents:
                    assert np.array_equal(req.result(120), reference)
                with pytest.raises(FaultInjected):
                    poisoned.result(120)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["poison_batches"] >= 1
            assert snap["resilience"]["poison_isolated"] == 1
            assert snap["resilience"]["poison_retries"] >= 1
            assert snap["requests"]["failed"] == 1

    @pytest.mark.parametrize(
        "point", [faults.BATCH_DISPATCH, faults.KERNEL_EXEC]
    )
    def test_one_shot_fault_on_lone_request_heals(self, payload, point):
        # Poison isolation does not depend on batch size: a batch of
        # one that fails gets its solo retry like any other batch.
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            reference = recoil_decompress(svc.serve("a", 4))
            with faults.inject(point, nth=1) as rule:
                out = svc.decompress("a", 4, timeout=60)
            assert rule.fires == 1
            assert np.array_equal(out, reference)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["poison_batches"] == 1
            assert snap["resilience"]["poison_retries"] == 1
            assert snap["resilience"]["poison_isolated"] == 0
            assert snap["requests"]["failed"] == 0

    def test_lone_poisoned_request_fails_after_its_retry(self, payload):
        with RecoilService() as svc:
            svc.put_asset("bad", payload, num_splits=32)
            with faults.inject(faults.SERVE_REQUEST, p=1.0, key="bad"):
                with pytest.raises(FaultInjected):
                    svc.decompress("bad", 4, timeout=60)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["poison_batches"] == 1
            assert snap["resilience"]["poison_isolated"] == 1
            assert snap["requests"]["failed"] == 1
            # The service still serves afterwards.
            out = svc.decompress("bad", 4, timeout=60)
            assert np.array_equal(
                out, recoil_decompress(svc.serve("bad", 4))
            )


# ---------------------------------------------------------------------------
# Deadlines.
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_queued_expiry_never_reaches_the_kernel(self, payload):
        # A parked batch holds the request in queue; its deadline
        # passes first, so the dispatcher must fail it pre-kernel.
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            with ParkedDispatcher(svc, "a") as park:
                req = svc.submit("a", 4, timeout=0.05)
                time.sleep(max(req.deadline - time.perf_counter(), 0) + 0.01)
            with pytest.raises(DeadlineError):
                req.result(30)
            assert np.array_equal(
                park.blocker.result(30), recoil_decompress(svc.serve("a", 4))
            )
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["deadline_expired"] == 1
            # The parked blocker's batch alone: no kernel time for req.
            assert snap["batches"]["dispatched"] == 1
            assert snap["requests"]["failed"] == 1

    def test_decompress_surfaces_deadline_error(self, payload):
        # The dispatcher fails the queued request once it is free,
        # inside decompress's grace past the deadline: the caller sees
        # the typed DeadlineError, not a bare TimeoutError.
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            outcome: list[Exception] = []

            def client() -> None:
                try:
                    svc.decompress("a", 4, timeout=0.05)
                except Exception as exc:  # noqa: BLE001
                    outcome.append(exc)

            caller = threading.Thread(target=client)
            with ParkedDispatcher(svc, "a") as park:
                caller.start()
                park.wait_until(lambda: park.queued == 1)
                time.sleep(0.06)  # the queued request's deadline lapses
            caller.join(30)
            assert len(outcome) == 1
            assert isinstance(outcome[0], DeadlineError), outcome

    def test_generous_deadline_decodes_normally(self, payload):
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            out = svc.decompress("a", 4, timeout=60)
            assert np.array_equal(
                out, recoil_decompress(svc.serve("a", 4))
            )
            assert (
                svc.metrics_snapshot()["resilience"]["deadline_expired"]
                == 0
            )

    def test_deadline_during_admission_wait(self, payload):
        cfg = ServiceConfig(
            max_inflight_symbols=1,
            admission_timeout_s=30.0,
        )
        with RecoilService(config=cfg) as svc:
            svc.put_asset("a", payload, num_splits=32)
            # The blocker is admitted while idle and stays in flight
            # while parked, so the next submit waits on admission.
            with ParkedDispatcher(svc, "a") as park:
                first = park.blocker
                t0 = time.perf_counter()
                with pytest.raises(DeadlineError, match="admission"):
                    svc.submit("a", 4, timeout=0.08)
                # It was the request deadline, not the 30 s admission cap.
                assert time.perf_counter() - t0 < 5.0
            assert np.array_equal(
                first.result(120), recoil_decompress(svc.serve("a", 4))
            )

    def test_non_positive_timeout_rejected(self, payload):
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            with pytest.raises(ServeError, match="timeout"):
                svc.submit("a", 4, timeout=0.0)

    def test_serve_deadline(self, payload, monkeypatch):
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            svc.serve("a", 4, timeout=30)  # plenty
            slow = svc.store.shrunk

            def glacial(name, capacity):
                time.sleep(0.05)
                return slow(name, capacity)

            monkeypatch.setattr(svc.store, "shrunk", glacial)
            with pytest.raises(DeadlineError):
                svc.serve("a", 8, timeout=0.01)


# ---------------------------------------------------------------------------
# close() never hangs.
# ---------------------------------------------------------------------------


class TestCloseTimeout:
    def test_wedged_dispatcher_is_reported_not_joined_forever(self):
        cfg = ServiceConfig(close_timeout_s=0.2)
        svc = RecoilService(config=cfg)
        real = svc._dispatcher
        stuck = threading.Thread(
            target=time.sleep, args=(5.0,),
            name="wedged-dispatcher", daemon=True,
        )
        stuck.start()
        svc._dispatcher = stuck
        t0 = time.perf_counter()
        with pytest.raises(ServeError, match="wedged-dispatcher"):
            svc.close()
        assert time.perf_counter() - t0 < 3.0
        assert svc.closed  # close() still completed its teardown
        real.join(10)
        assert not real.is_alive()
        svc.close()  # idempotent after the failure

    def test_clean_close_raises_nothing(self):
        svc = RecoilService(config=ServiceConfig(close_timeout_s=2.0))
        svc.close()
        assert svc.closed


# ---------------------------------------------------------------------------
# The full storm: concurrent clients, faults at every layer.
# ---------------------------------------------------------------------------


class TestConcurrentChaos:
    CLIENTS = 16
    REQUESTS_PER_CLIENT = 3

    def test_sixteen_clients_survive_the_storm(self, payload):
        threads_before = threading.active_count()
        with RecoilService() as svc:
            # One shared model + equal sizes => equal fuse keys, so
            # poison requests genuinely share batches with innocents.
            from repro.rans.model import SymbolModel

            model = SymbolModel.from_data(payload, 11, alphabet_size=256)
            svc.put_asset("a", payload, num_splits=32, model=model)
            svc.put_asset(
                "b", np.roll(payload, 1_000), num_splits=32, model=model
            )
            svc.put_asset(
                "poison", np.roll(payload, 2_000), num_splits=32,
                model=model,
            )
            reference = {
                name: recoil_decompress(svc.serve(name, 4))
                for name in ("a", "b", "poison")
            }
            errors: list[Exception] = []
            bad_bytes: list[str] = []
            lock = threading.Lock()

            def client(idx: int) -> None:
                names = ["a", "b", "poison"]
                for i in range(self.REQUESTS_PER_CLIENT):
                    name = names[(idx + i) % len(names)]
                    try:
                        out = svc.decompress(name, 4, timeout=120)
                    except ReproError as exc:
                        with lock:
                            errors.append(exc)
                        continue
                    if not np.array_equal(out, reference[name]):
                        with lock:
                            bad_bytes.append(name)

            rules = [
                faults.inject(faults.KERNEL_EXEC, nth=1),
                faults.inject(faults.BATCH_DISPATCH, nth=4),
                faults.inject(
                    faults.SERVE_REQUEST, p=1.0, key="poison"
                ),
            ]
            from contextlib import ExitStack

            with ExitStack() as stack:
                # The opening burst queues behind a parked batch and
                # fuses into one batch (dispatch hit 1) whose kernel
                # call fails; its two solo retries (hits 2-3) heal it.
                # The storm's first batch then takes the 4th dispatch
                # hit, and its solo retries heal it too.
                with ParkedDispatcher(svc, "a") as park:
                    burst = [svc.submit(name, 4) for name in ("a", "b")]
                    armed = [stack.enter_context(rule) for rule in rules]
                assert np.array_equal(park.blocker.result(120), reference["a"])
                for name, req in zip(("a", "b"), burst):
                    assert np.array_equal(req.result(120), reference[name])
                workers = [
                    threading.Thread(target=client, args=(i,), daemon=True)
                    for i in range(self.CLIENTS)
                ]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=300)
                    assert not t.is_alive(), "client thread hung"
            assert [rule.fires for rule in armed[:2]] == [1, 1]

            # Correctness: NEVER wrong bytes, under any injected fault.
            assert bad_bytes == []
            # Only the poisoned asset may fail, and only with the
            # typed injection error (batch-level faults are healed by
            # the solo retries; the batchmates never see them).
            assert all(isinstance(e, FaultInjected) for e in errors), errors
            # Every poisoned request failed; each client hit the
            # poison asset exactly once.
            assert len(errors) == self.CLIENTS
            snap = svc.metrics_snapshot()
            # + the opening burst and the parked blocker.
            total = self.CLIENTS * self.REQUESTS_PER_CLIENT + len(burst) + 1
            assert snap["requests"]["submitted"] == total
            assert (
                snap["requests"]["completed"]
                + snap["requests"]["failed"]
                == total
            )
            assert snap["requests"]["failed"] == len(errors)
            assert snap["resilience"]["poison_batches"] >= 1
        # Nothing left running.
        deadline = time.monotonic() + 10
        while threading.active_count() > threads_before:
            if time.monotonic() > deadline:
                pytest.fail(
                    f"threads leaked: {threading.enumerate()}"
                )
            time.sleep(0.05)

    def test_fused_backend_storm_no_sharding_needed(self, payload):
        # Probabilistic dispatch faults on one asset: failures are
        # allowed, but only typed ones, and the counters reconcile.
        with RecoilService() as svc:
            svc.put_asset("a", payload, num_splits=32)
            reference = recoil_decompress(svc.serve("a", 4))
            errors: list[Exception] = []
            lock = threading.Lock()

            def client() -> None:
                for _ in range(self.REQUESTS_PER_CLIENT):
                    try:
                        out = svc.decompress("a", 4, timeout=120)
                    except ReproError as exc:
                        with lock:
                            errors.append(exc)
                        continue
                    assert np.array_equal(out, reference)

            with faults.inject(
                faults.BATCH_DISPATCH, p=0.2, seed=CHAOS_SEED
            ):
                workers = [
                    threading.Thread(target=client, daemon=True)
                    for _ in range(self.CLIENTS)
                ]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=300)
                    assert not t.is_alive(), "client thread hung"
            # batch.dispatch faults strike batches, and the solo
            # retries may be struck again — but every failure must be
            # the typed injection error, never corrupt output.
            assert all(isinstance(e, FaultInjected) for e in errors)
            snap = svc.metrics_snapshot()
            total = self.CLIENTS * self.REQUESTS_PER_CLIENT
            assert (
                snap["requests"]["completed"]
                + snap["requests"]["failed"]
                == total
            )
