"""Serving metrics: per-request, per-batch, and per-connection counters.

One :class:`ServeMetrics` instance is owned by a
:class:`~repro.serve.service.RecoilService` and updated from both the
client threads (request lifecycle, admission waits) and the dispatcher
thread (batch execution), so every mutation is lock-protected.  The
benchmarks (``benchmarks/bench_serve.py``) and ``recoil serve-bench``
read :meth:`snapshot` — a plain dict, safe to serialize.

:class:`NetMetrics` is the same idea for the network front-end
(:class:`~repro.serve.net.NetServer`): connection lifecycle, protocol
errors, deadline kills, load shedding and drain outcomes, updated from
the accept loop and every connection thread.  A server attaches its
instance to the service (``service.attach_network_metrics``) so
``metrics_snapshot()`` reports one unified view under ``"network"``.

Both carry one latency histogram per stage of a request, and one
recorder, :meth:`~ServeMetrics.stage`, feeds it: a stage's histogram
sample and, for a traced request, its span (``serve.*`` and
``net.*``, DESIGN.md §17) come from the same two clock reads, so the
distribution and the timeline cannot drift apart.
"""

from __future__ import annotations

import threading

from .. import trace
from ..trace.hist import LatencyHistogram


class _StageMetrics:
    """The lock and the per-stage instruments both metrics classes
    share: one always-on histogram per stage, mirrored by a span when
    the request is traced."""

    #: stage name -> the span it records for a traced request.
    SPANS: dict[str, str] = {}
    SPAN_CAT = "serve"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: per-stage latency distributions (log-bucketed streaming
        #: histograms — bounded memory, own leaf locks).
        self.stages = {s: LatencyHistogram() for s in self.SPANS}

    def stage(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        req: int | None = None,
        parent: int | None = None,
        sid: int | None = None,
        args: dict | None = None,
        excluded_s: float = 0.0,
    ) -> None:
        """Record one stage of a request from the same two clock
        reads: ``t1 - t0`` into the stage's histogram, always, and the
        ``[t0, t1]`` span when the request is traced (``req`` is its
        trace request id).  ``excluded_s`` comes off the histogram
        sample only: the handle stage leaves out its response writes,
        so read + handle + write == e2e, while its span still covers
        them."""
        self.stages[name].record(t1 - t0 - excluded_s)
        if req is not None:
            trace.record_span(
                self.SPANS[name],
                t0,
                t1,
                cat=self.SPAN_CAT,
                req=req,
                parent=parent,
                sid=sid,
                args=args,
            )


class ServeMetrics(_StageMetrics):
    """Thread-safe counters for one service instance."""

    #: where a request's time goes between submit and completion
    #: (DESIGN.md §17), each stage with its ``serve.*`` span.
    SPANS = {
        s: f"serve.{s}"
        for s in ("shrink", "admission", "batch_window", "kernel", "request")
    }

    def __init__(self) -> None:
        super().__init__()
        # -- request lifecycle -----------------------------------------
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.request_latency_total_s = 0.0
        self.request_latency_max_s = 0.0
        # -- admission / backpressure ----------------------------------
        self.admission_waits = 0  # requests that had to block
        self.admission_rejected = 0  # timed out waiting (AdmissionError)
        self.peak_inflight_symbols = 0
        # -- batching --------------------------------------------------
        self.batches_dispatched = 0
        self.batched_requests = 0  # requests that shared a batch (size >= 2)
        self.largest_batch_requests = 0
        self.fused_tasks_total = 0
        self.symbols_decoded = 0
        self.kernel_seconds = 0.0
        # -- serving (shrink) ------------------------------------------
        self.shrink_cache_hits = 0
        self.shrink_cache_misses = 0
        self.bytes_served = 0
        # -- resilience (DESIGN.md §15) --------------------------------
        self.poison_batches = 0  # failed batches retried per-request
        self.poison_retries = 0  # solo re-runs performed
        self.poison_isolated = 0  # requests that failed alone (the poison)
        self.deadline_expired = 0  # requests failed by deadline

    # ------------------------------------------------------------------

    def record_submit(self) -> None:
        with self._lock:
            self.requests_submitted += 1

    def record_admission_wait(self) -> None:
        with self._lock:
            self.admission_waits += 1

    def record_admission_rejected(self) -> None:
        with self._lock:
            self.admission_rejected += 1

    def record_inflight(self, inflight_symbols: int) -> None:
        with self._lock:
            if inflight_symbols > self.peak_inflight_symbols:
                self.peak_inflight_symbols = inflight_symbols

    def record_completion(self, latency_s: float, ok: bool) -> None:
        with self._lock:
            if ok:
                self.requests_completed += 1
            else:
                self.requests_failed += 1
            self.request_latency_total_s += latency_s
            if latency_s > self.request_latency_max_s:
                self.request_latency_max_s = latency_s

    def record_batch(
        self,
        num_requests: int,
        num_tasks: int,
        symbols: int,
        seconds: float,
    ) -> None:
        with self._lock:
            self.batches_dispatched += 1
            if num_requests >= 2:
                self.batched_requests += num_requests
            if num_requests > self.largest_batch_requests:
                self.largest_batch_requests = num_requests
            self.fused_tasks_total += num_tasks
            self.symbols_decoded += symbols
            self.kernel_seconds += seconds

    def record_poison_batch(self) -> None:
        with self._lock:
            self.poison_batches += 1

    def record_poison_retry(self, isolated: bool) -> None:
        with self._lock:
            self.poison_retries += 1
            if isolated:
                self.poison_isolated += 1

    def record_deadline_expired(self) -> None:
        with self._lock:
            self.deadline_expired += 1

    def record_shrink(self, nbytes: int, cache_hit: bool) -> None:
        with self._lock:
            if cache_hit:
                self.shrink_cache_hits += 1
            else:
                self.shrink_cache_misses += 1
            self.bytes_served += nbytes

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent point-in-time view (plain dict, derived means
        included)."""
        with self._lock:
            done = self.requests_completed + self.requests_failed
            shrinks = self.shrink_cache_hits + self.shrink_cache_misses
            return {
                "requests": {
                    "submitted": self.requests_submitted,
                    "completed": self.requests_completed,
                    "failed": self.requests_failed,
                    "mean_latency_s": (
                        self.request_latency_total_s / done if done else 0.0
                    ),
                    "total_latency_s": self.request_latency_total_s,
                    "max_latency_s": self.request_latency_max_s,
                },
                "admission": {
                    "waits": self.admission_waits,
                    "rejected": self.admission_rejected,
                    "peak_inflight_symbols": self.peak_inflight_symbols,
                },
                "batches": {
                    "dispatched": self.batches_dispatched,
                    "batched_requests": self.batched_requests,
                    "largest_requests": self.largest_batch_requests,
                    "mean_requests": (
                        (self.requests_completed + self.requests_failed)
                        / self.batches_dispatched
                        if self.batches_dispatched
                        else 0.0
                    ),
                    "fused_tasks": self.fused_tasks_total,
                    "symbols_decoded": self.symbols_decoded,
                    "kernel_seconds": self.kernel_seconds,
                },
                "shrink": {
                    "cache_hits": self.shrink_cache_hits,
                    "cache_misses": self.shrink_cache_misses,
                    "hit_rate": (
                        self.shrink_cache_hits / shrinks if shrinks else 0.0
                    ),
                    "bytes_served": self.bytes_served,
                },
                "resilience": {
                    "poison_batches": self.poison_batches,
                    "poison_retries": self.poison_retries,
                    "poison_isolated": self.poison_isolated,
                    "deadline_expired": self.deadline_expired,
                },
                "stage_latency_ms": {
                    stage: hist.snapshot()
                    for stage, hist in self.stages.items()
                },
            }


class NetMetrics(_StageMetrics):
    """Thread-safe counters for one network front-end.

    Invariants asserted by the test suite (``tests/test_serve.py``):

    - ``connections.opened == connections.closed + connections.active``
      at every snapshot (opened/closed are recorded under one lock);
    - ``connections.active == 0`` once the server has shut down;
    - ``requests.ok + requests.failed`` never exceeds the frames a
      clean client sent (a killed connection loses at most the one
      request in flight).
    """

    #: the connection thread's view of one request; the end-to-end
    #: stage is the request's root span.
    SPANS = {
        "read": "net.read",
        "handle": "net.handle",
        "write": "net.write",
        "e2e": "net.request",
    }
    SPAN_CAT = "net"

    def __init__(self) -> None:
        super().__init__()
        # -- connection lifecycle --------------------------------------
        self.connections_opened = 0
        self.connections_closed = 0
        self.connections_rejected = 0  # over the cap (shed at accept)
        self.peak_active = 0
        # -- per-request -----------------------------------------------
        self.requests_ok = 0
        self.requests_failed = 0  # answered with a typed error frame
        self.bytes_read = 0
        self.bytes_written = 0
        # -- robustness ------------------------------------------------
        self.protocol_errors = 0  # malformed frames answered + closed
        self.transport_errors = 0  # peer resets / mid-frame disconnects
        self.deadline_kills_read = 0  # slow-loris / dead-peer reads
        self.deadline_kills_write = 0  # slow-reader writes
        self.retry_afters_sent = 0  # shed responses (cap + admission)
        self.stalls_injected = 0  # net.stall fault fires honored
        # -- drain (shutdown) ------------------------------------------
        self.drain_clean = 0  # connections that finished in time
        self.drain_forced = 0  # hard-closed at the drain deadline

    # ------------------------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1
            active = self.connections_opened - self.connections_closed
            if active > self.peak_active:
                self.peak_active = active

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_closed += 1

    def connection_rejected(self) -> None:
        with self._lock:
            self.connections_rejected += 1
            self.retry_afters_sent += 1

    def record_request(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self.requests_ok += 1
            else:
                self.requests_failed += 1

    def record_bytes(self, read: int = 0, written: int = 0) -> None:
        with self._lock:
            self.bytes_read += read
            self.bytes_written += written

    def record_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def record_transport_error(self) -> None:
        with self._lock:
            self.transport_errors += 1

    def record_deadline_kill(self, *, write: bool) -> None:
        with self._lock:
            if write:
                self.deadline_kills_write += 1
            else:
                self.deadline_kills_read += 1

    def record_retry_after(self) -> None:
        with self._lock:
            self.retry_afters_sent += 1

    def record_stall(self) -> None:
        with self._lock:
            self.stalls_injected += 1

    def record_drain(self, *, forced: bool) -> None:
        with self._lock:
            if forced:
                self.drain_forced += 1
            else:
                self.drain_clean += 1

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent point-in-time view (plain dict)."""
        with self._lock:
            return {
                "connections": {
                    "opened": self.connections_opened,
                    "closed": self.connections_closed,
                    "active": (
                        self.connections_opened - self.connections_closed
                    ),
                    "rejected": self.connections_rejected,
                    "peak_active": self.peak_active,
                },
                "requests": {
                    "ok": self.requests_ok,
                    "failed": self.requests_failed,
                    "bytes_read": self.bytes_read,
                    "bytes_written": self.bytes_written,
                },
                "protocol_errors": self.protocol_errors,
                "transport_errors": self.transport_errors,
                "deadline_kills": {
                    "read": self.deadline_kills_read,
                    "write": self.deadline_kills_write,
                    "total": (
                        self.deadline_kills_read + self.deadline_kills_write
                    ),
                },
                "retry_afters_sent": self.retry_afters_sent,
                "stalls_injected": self.stalls_injected,
                "drain": {
                    "clean": self.drain_clean,
                    "forced": self.drain_forced,
                },
                "stage_latency_ms": {
                    stage: hist.snapshot()
                    for stage, hist in self.stages.items()
                },
            }
