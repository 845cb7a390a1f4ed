"""`RecoilService`: in-process batched content-delivery service.

The subsystem's facade, tying together the serving pipeline of
DESIGN.md §12:

1. **Store** (:mod:`repro.serve.store`): assets are encoded once at
   maximum parallelism; per-request metadata shrinking is answered
   from an LRU cache keyed ``(asset, client_capacity)``.
2. **Batcher** (:mod:`repro.serve.batcher`): the dispatcher sends a
   batch as soon as it is free, so a lone request never waits for
   companions; concurrent decompress requests that queue while a batch
   runs dispatch next as ONE fused multi-task kernel call (up to the
   request cap) — cross-request fusion over the wide-lane layout of
   the fused kernels.
3. **Admission** (backpressure): in-flight work is bounded by the cost
   model's walked-symbol estimates; submitters block (up to a
   timeout) when the bound is saturated, so a burst cannot queue
   unbounded kernel work.

Clients are threads in the same process: ``decompress`` blocks for the
result, ``submit`` returns a request handle for async use.  A single
dispatcher thread executes each batch as one
:func:`~repro.parallel.fused.fused_run_multi` call — by default one
GIL-releasing call into the C decode walk (DESIGN.md §19), so client
threads keep running.

Failure semantics (DESIGN.md §15): a failed batch, of any size, is
retried request-by-request so only the poisoned request errors;
per-request deadlines are enforced *before* kernel dispatch, so an
expired request never occupies kernel time.  All of it is visible in
:meth:`RecoilService.metrics_snapshot` under ``"resilience"``.

One request lifecycle: however a request ends — decoded, failed in
its batch or its solo retry, expired in the queue or the retry, or
drained by ``close()`` — :meth:`RecoilService._complete` ends it,
stamping, counting and recording its stages before its future
resolves, so a caller never sees a result the metrics have not
counted.  Each stage is recorded once, by
:meth:`ServeMetrics.stage <repro.serve.metrics.ServeMetrics.stage>`,
into its histogram and (traced) its span.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import faults, trace
from repro.errors import AdmissionError, DeadlineError, ServeError
from repro.parallel import compiled
from repro.parallel.fused import MultiRunResult, fused_run_multi
from repro.rans.model import SymbolModel
from repro.serve.batcher import DecodeRequest, RequestBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.store import AssetStore, StoredAsset


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (see DESIGN.md §12)."""

    #: hard cap on requests fused into one kernel call (1: one
    #: request per call, in arrival order — the benchmark baseline).
    max_batch_requests: int = 64
    #: admission bound on in-flight estimated walked symbols.
    max_inflight_symbols: int = 32_000_000
    #: how long a submitter may block on admission before
    #: :class:`~repro.errors.AdmissionError`.
    admission_timeout_s: float = 30.0
    #: LRU capacity of the shrink cache (entries).
    shrink_cache_entries: int = 256
    #: optional byte bound on the shrink cache (total cached variant
    #: blob bytes; ``None`` = entries-only bound).
    shrink_cache_bytes: int | None = None
    #: durable store directory (DESIGN.md §18): ``OP_PUT``/``put_*``
    #: ingests persist crash-safely, startup recovers and quarantines,
    #: evicted assets hydrate back from here.  ``None`` = memory-only.
    store_dir: str | None = None
    #: resident-tier byte budget: LRU assets evict from memory past
    #: this bound (requires a ``store_dir`` to evict to; ``None`` =
    #: everything stays resident).
    resident_bytes: int | None = None
    #: how long :meth:`RecoilService.close` waits for the dispatcher
    #: thread before raising instead of hanging.
    close_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ServeError(
                f"max_batch_requests must be >= 1, got "
                f"{self.max_batch_requests}"
            )
        if self.close_timeout_s <= 0:
            raise ServeError(
                f"close_timeout_s must be > 0, got {self.close_timeout_s}"
            )
        if self.shrink_cache_bytes is not None and self.shrink_cache_bytes < 1:
            raise ServeError(
                f"shrink_cache_bytes must be >= 1, got "
                f"{self.shrink_cache_bytes}"
            )
        if self.resident_bytes is not None and self.resident_bytes < 1:
            raise ServeError(
                f"resident_bytes must be >= 1, got {self.resident_bytes}"
            )


class RecoilService:
    """Batched content-delivery service over an :class:`AssetStore`."""

    def __init__(
        self,
        store: AssetStore | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None else AssetStore(
            shrink_cache_entries=self.config.shrink_cache_entries,
            shrink_cache_bytes=self.config.shrink_cache_bytes,
            store_dir=self.config.store_dir,
            resident_bytes=self.config.resident_bytes,
        )
        self.metrics = ServeMetrics()
        self._cond = threading.Condition()
        self._batcher = RequestBatcher(self.config.max_batch_requests)
        self._inflight_symbols = 0
        self._running = True
        # close() is reachable from signal handlers and racing threads
        # (the network front-end's drain path): one winner tears down,
        # everyone else waits on _close_done — and a re-entrant call
        # from a signal handler interrupting the winner returns
        # immediately instead of deadlocking on the winner's own locks.
        self._close_lock = threading.Lock()
        self._close_owner: threading.Thread | None = None
        self._close_done = threading.Event()
        self._net_metrics = None
        #: the kernel every batch runs on, as one call on the
        #: dispatcher thread: ``"compiled"`` — the bounds-checked C
        #: decode walk — or ``"numpy"`` on a host without a C compiler
        #: (DESIGN.md §19).  The warm-up also front-loads the one-time
        #: compile so it never lands inside a request's timed path.
        self._kernel = compiled.warm_up()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="recoil-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    @property
    def decode_kernel(self) -> str:
        """The kernel batches run: ``"compiled"``, or ``"numpy"`` on a
        host without a C compiler (DESIGN.md §19)."""
        return self._kernel

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "RecoilService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting requests and fail anything still pending.

        Idempotent and re-entrant: ``close()`` is reachable from
        signal handlers and from multiple threads at once (the network
        front-end's drain path, a double Ctrl-C).  Exactly one caller
        — the *winner* — performs the teardown; a racing thread blocks
        until the winner finishes (bounded by ``close_timeout_s``) and
        returns quietly; a re-entrant call on the winner's own thread
        (a signal handler interrupting the teardown) returns
        immediately, because waiting there would deadlock the very
        teardown it is waiting for.

        The winner joins the dispatcher thread (bounded by
        ``close_timeout_s``) and fails queued requests with
        :class:`~repro.errors.ServeError`.

        :raises ServeError: (winner only) the dispatcher thread did
            not exit within ``close_timeout_s`` (named in the message
            so operators can find it) — the service is still marked
            closed and queued requests are failed, but the wedged
            thread leaks.
        """
        if not self._close_lock.acquire(blocking=False):
            # Someone is already closing.  If that someone is *this*
            # thread (a signal handler interrupting our own teardown,
            # or a callback fired from inside it), return now — any
            # wait would deadlock.  Otherwise wait for the winner.
            if self._close_owner is threading.current_thread():
                return
            self._close_done.wait(self.config.close_timeout_s)
            return
        self._close_owner = threading.current_thread()
        try:
            if self._close_done.is_set():
                return
            with self._cond:
                self._running = False
                self._cond.notify_all()
            # A close() issued *from* the dispatcher thread (a fault
            # callback, a test) must not join itself.
            if self._dispatcher is not threading.current_thread():
                self._dispatcher.join(self.config.close_timeout_s)
            wedged = (
                self._dispatcher.is_alive()
                and self._dispatcher is not threading.current_thread()
            )
            with self._cond:
                leftovers = self._batcher.drain()
                self._inflight_symbols = 0
                self._cond.notify_all()
            for req in leftovers:
                self._complete(req, ServeError("service closed"))
            self._close_done.set()
            if wedged:
                raise ServeError(
                    f"dispatcher thread {self._dispatcher.name!r} did "
                    f"not exit within {self.config.close_timeout_s:.3g}s "
                    f"of close(); it is leaked (likely stuck in a "
                    f"kernel)"
                )
        finally:
            # Set done even on a teardown error: waiters must not hang
            # on a winner that raised.
            self._close_done.set()
            self._close_owner = None
            self._close_lock.release()

    @property
    def closed(self) -> bool:
        return not self._running

    # -- ingest --------------------------------------------------------

    def put_asset(
        self,
        name: str,
        data: np.ndarray,
        num_splits: int | None = None,
        quant_bits: int | None = None,
        model: SymbolModel | None = None,
    ) -> StoredAsset:
        """Encode ``data`` once (at max parallelism) and store it.

        :param name: asset name (re-putting a name replaces the asset
            and invalidates its cached shrinks).
        :param data: symbol array to compress.
        :param num_splits: decoder parallelism to encode metadata for
            (default: the store's ``default_num_splits``).
        :param quant_bits: probability quantization level ``n``.
        :param model: explicit symbol model (default: fitted to
            ``data`` and embedded in the container).
        :returns: the stored asset with its parsed container.
        :raises EncodeError: empty/invalid data or ``num_splits < 1``.
        :raises ModelError: a malformed explicit model.
        """
        return self.store.put(
            name,
            data,
            num_splits=num_splits,
            quant_bits=quant_bits,
            model=model,
        )

    def put_container(self, name: str, blob: bytes, provider=None):
        """Store an already-encoded container under ``name``.

        :param provider: model provider for containers whose model
            travels out of band (adaptive encodes).
        :returns: the stored :class:`~repro.serve.store.StoredAsset`.
        :raises ContainerError: malformed container bytes.
        :raises MetadataError: a model is required but missing.
        """
        return self.store.put_container(name, blob, provider=provider)

    # -- serving (bytes on the wire) -----------------------------------

    def serve(
        self, name: str, capacity: int, timeout: float | None = None
    ) -> bytes:
        """Container bytes shrunk to ``capacity`` (the per-request
        real-time operation of §3.3; cached).

        :param timeout: optional deadline in seconds; a shrink that
            takes longer (a cold cache miss on a huge master under
            load) raises instead of returning late.
        :returns: servable container bytes (same payload as the
            master, combined metadata).
        :raises ServeError: unknown asset.
        :raises MetadataError: ``capacity < 1``.
        :raises DeadlineError: the shrink missed ``timeout``.
        """
        t0 = time.perf_counter()
        variant, hit = self.store.shrunk(name, capacity)
        if (
            timeout is not None
            and time.perf_counter() - t0 > timeout
        ):
            self.metrics.record_deadline_expired()
            raise DeadlineError(
                f"serve({name!r}, capacity={capacity}) missed its "
                f"{timeout:.3g}s deadline"
            )
        self.metrics.record_shrink(len(variant.blob), cache_hit=hit)
        return variant.blob

    # -- decoding ------------------------------------------------------

    def submit(
        self,
        name: str,
        capacity: int,
        timeout: float | None = None,
        *,
        trace_req: int | None = None,
        trace_parent: int | None = None,
    ) -> DecodeRequest:
        """Enqueue a decompress request; returns a waitable handle.

        Blocks (backpressure) while the in-flight work bound is
        saturated.

        :param name: stored asset to decode.
        :param capacity: the client's advertised decoder parallelism
            (selects the shrunk variant whose tasks the kernel runs).
        :param timeout: optional per-request deadline in seconds,
            measured from now.  A request whose deadline passes while
            it is still queued is failed by the dispatcher with
            :class:`~repro.errors.DeadlineError` *without* occupying
            kernel time; a deadline that expires during the admission
            wait raises it here.
        :returns: a handle whose :meth:`~DecodeRequest.result` blocks
            for the decoded symbols.
        :raises ServeError: unknown asset, the service is closed, or
            ``timeout <= 0``.
        :raises MetadataError: ``capacity < 1``.
        :raises AdmissionError: the in-flight bound stayed saturated
            past ``admission_timeout_s``.
        :raises DeadlineError: ``timeout`` elapsed before admission.

        ``trace_req``/``trace_parent`` adopt an already-open trace
        context (the network front-end's request id and span) so the
        service spans stitch under the connection's timeline; omitted,
        a traced submit opens its own request.
        """
        if not self._running:
            raise ServeError("service closed")
        if timeout is not None and timeout <= 0:
            raise ServeError(
                f"timeout must be positive, got {timeout}"
            )
        t_submit = time.perf_counter()
        variant, hit = self.store.shrunk(name, capacity)
        t_shrunk = time.perf_counter()
        self.metrics.record_shrink(len(variant.blob), cache_hit=hit)
        # variant.asset, not a second store.get(): a concurrent put()
        # replacing the name must not pair old tasks with new words.
        request_deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        request = DecodeRequest(
            variant.asset,
            variant,
            deadline=request_deadline,
            submitted_at=t_submit,
        )
        if trace.enabled():
            request.trace_req = (
                trace_req if trace_req is not None else trace.new_request()
            )
            request.trace_parent = trace_parent
            request.trace_root = trace.next_span_id()
        self.metrics.stage(
            "shrink",
            t_submit,
            t_shrunk,
            req=request.trace_req,
            parent=request.trace_root,
            args={"asset": name, "cache_hit": hit},
        )

        cost = request.cost_symbols
        admit_by = time.perf_counter() + self.config.admission_timeout_s
        if request_deadline is not None:
            admit_by = min(admit_by, request_deadline)
        t_admission = time.perf_counter()
        with self._cond:
            waited = False
            while (
                self._running
                and self._inflight_symbols > 0
                and self._inflight_symbols + cost
                > self.config.max_inflight_symbols
            ):
                if not waited:
                    waited = True
                    self.metrics.record_admission_wait()
                remaining = admit_by - time.perf_counter()
                if remaining <= 0 or not self._cond.wait(remaining):
                    now = time.perf_counter()
                    if (
                        request_deadline is not None
                        and now >= request_deadline
                    ):
                        self.metrics.record_deadline_expired()
                        raise DeadlineError(
                            f"request deadline ({timeout:.3g}s) expired "
                            f"while blocked on admission "
                            f"({self._inflight_symbols:,} symbols in "
                            f"flight)"
                        )
                    self.metrics.record_admission_rejected()
                    raise AdmissionError(
                        f"admission timed out after "
                        f"{self.config.admission_timeout_s:.3g}s "
                        f"({self._inflight_symbols:,} symbols in flight, "
                        f"bound {self.config.max_inflight_symbols:,})"
                    )
            if not self._running:
                raise ServeError("service closed")
            self._inflight_symbols += cost
            self.metrics.record_inflight(self._inflight_symbols)
            request.admitted_at = time.perf_counter()
            self._batcher.add(request)
            # Counted only once enqueued, so submitted always
            # reconciles with completed + failed.
            self.metrics.record_submit()
            self._cond.notify_all()
        self.metrics.stage(
            "admission",
            t_admission,
            request.admitted_at,
            req=request.trace_req,
            parent=request.trace_root,
            args={"waited": waited},
        )
        return request

    def decompress(
        self,
        name: str,
        capacity: int,
        timeout: float | None = None,
        *,
        trace_req: int | None = None,
        trace_parent: int | None = None,
    ) -> np.ndarray:
        """Decode asset ``name`` as a ``capacity``-thread client would,
        through the batched service path.

        :param timeout: per-request deadline in seconds (``None`` =
            no deadline).  Enforced service-side: a request that is
            still queued when the deadline passes is failed with
            :class:`~repro.errors.DeadlineError` without occupying
            kernel time.
        :returns: the decoded symbol array (bit-identical to
            :func:`repro.core.api.recoil_decompress` on the served
            bytes).
        :raises ServeError: unknown asset or closed service.
        :raises AdmissionError: admission timed out (backpressure).
        :raises DecodeError: the stored container failed to decode.
        :raises DeadlineError: the deadline expired before the batch
            ran.
        :raises TimeoutError: the deadline passed while the batch was
            already executing (the dispatcher only enforces deadlines
            *before* kernel dispatch; an in-kernel request runs to
            completion, this client just stops waiting for it).
        """
        request = self.submit(
            name,
            capacity,
            timeout=timeout,
            trace_req=trace_req,
            trace_parent=trace_parent,
        )
        if request.deadline is None:
            return request.result()
        # Small grace past the deadline so the dispatcher's typed
        # DeadlineError (set at pop_expired) wins over a bare client
        # TimeoutError in the common still-queued case.
        remaining = request.deadline - time.perf_counter()
        return request.result(max(remaining, 0.0) + 0.1)

    def attach_network_metrics(self, net_metrics) -> None:
        """Register a front-end's :class:`~repro.serve.metrics.NetMetrics`
        so :meth:`metrics_snapshot` reports a ``"network"`` section
        (one unified operator view; called by
        :class:`~repro.serve.net.NetServer`)."""
        self._net_metrics = net_metrics

    def metrics_snapshot(self) -> dict:
        """JSON-able service counters (requests, batches, shrink cache,
        admission, resilience, and — when a network front-end is
        attached — connection/protocol/drain counters under
        ``"network"``) plus store statistics — see
        :class:`repro.serve.metrics.ServeMetrics` and
        :class:`repro.serve.metrics.NetMetrics`."""
        snap = self.metrics.snapshot()
        snap["network"] = (
            self._net_metrics.snapshot()
            if self._net_metrics is not None
            else None
        )
        snap["store"] = self.store.metrics()
        snap["resilience"]["kernel"] = self._kernel
        # Flat numerics: the resilience section is all-zero on a clean
        # run (tests rely on that); the degradation reason string lives
        # in snap["store"].
        snap["resilience"]["store_degradations"] = (
            self.store.store_degradations
        )
        snap["resilience"]["store_persist_failures"] = (
            self.store.persist_failures
        )
        snap["resilience"]["store_memory_only"] = int(
            self.store.memory_only
        )
        return snap

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while self._running and not len(self._batcher):
                    self._cond.wait()
                if not self._running:
                    return
                # Dispatch on idle: whatever queued while the last
                # batch ran goes out now, with no wait for companions.
                # Deadline enforcement happens HERE, before dispatch:
                # an expired request is dropped from the queue and
                # never occupies kernel time.
                expired = self._batcher.pop_expired()
                if expired:
                    for req in expired:
                        self._inflight_symbols -= req.cost_symbols
                    self._cond.notify_all()
                batch = self._batcher.pop_batch()
            for req in expired:
                self.metrics.record_deadline_expired()
                self._complete(
                    req,
                    DeadlineError(
                        f"deadline expired after "
                        f"{time.perf_counter() - req.enqueued_at:.3g}s in "
                        f"queue (asset {req.asset.name!r})"
                    ),
                )
            if batch:
                self._dispatch(batch)
                with self._cond:
                    for req in batch:
                        self._inflight_symbols -= req.cost_symbols
                    self._cond.notify_all()

    def _run_batch(self, batch: list[DecodeRequest]) -> MultiRunResult:
        """Execute one fused batch: a single kernel call on the
        dispatcher thread."""
        faults.fire(faults.BATCH_DISPATCH)
        for req in batch:
            faults.fire(faults.SERVE_REQUEST, key=req.asset.name)
        first = batch[0].asset
        return fused_run_multi(
            first.provider,
            first.lanes,
            [req.segment() for req in batch],
            out_dtype=first.out_dtype,
        )

    def _dispatch(
        self, batch: list[DecodeRequest], *, retry: bool = False
    ) -> None:
        """Run ``batch`` as one kernel call (:meth:`_run_batch`, under
        a ``serve.batch`` span) and complete every request in it.

        Poison isolation: one bad request must not fail its
        batchmates, and a one-shot fault must not fail a lone request.
        A failed batch, whatever its size, reruns each of its requests
        alone through this routine (``retry=True``, exactly once) —
        innocents decode bit-identically (the kernel is deterministic
        and each solo run sees only its own segment), and only the
        poisoned request fails.  A request whose deadline lapsed
        during the failed attempt is failed without kernel time, like
        any other expired request.
        """
        m = self.metrics
        t0 = time.perf_counter()
        try:
            result, error = self._run_batch(batch), None
        except Exception as exc:
            result, error = None, exc
        t1 = time.perf_counter()
        trace.record_span(
            "serve.batch",
            t0,
            t1,
            args={"requests": len(batch), "kernel": self._kernel},
        )
        if error is None:
            m.record_batch(
                len(batch),
                result.stats.tasks,
                result.stats.symbols_decoded,
                t1 - t0,
            )
            outcomes = result.segment_outputs()
        else:
            tasks = sum(r.variant.columns.num_tasks for r in batch)
            m.record_batch(len(batch), tasks, 0, t1 - t0)
            if not retry:
                m.record_poison_batch()
                for req in batch:
                    if (
                        req.deadline is not None
                        and time.perf_counter() >= req.deadline
                    ):
                        m.record_deadline_expired()
                        self._complete(
                            req,
                            DeadlineError(
                                f"deadline expired during "
                                f"poison-isolation retry (asset "
                                f"{req.asset.name!r})"
                            ),
                        )
                    else:
                        self._dispatch([req], retry=True)
                return
            outcomes = [error]
        if retry:
            m.record_poison_retry(isolated=error is not None)
        for req, outcome in zip(batch, outcomes):
            self._complete(req, outcome, t0, t1)

    def _complete(
        self,
        req: DecodeRequest,
        outcome,
        kernel_t0: float | None = None,
        kernel_t1: float | None = None,
    ) -> None:
        """End one request: the only place a request's future resolves.

        Stamps the completion time, counts the request, and — when it
        reached the kernel, whose call spanned ``[kernel_t0,
        kernel_t1]`` — records its stages: ``batch_window`` (the wait
        for a free dispatcher, from admission to the start of its
        batch), ``kernel`` (the whole batch's call) and the end-to-end
        ``request``.  Only then does the caller get ``outcome``: the
        decoded symbols, or the exception to raise.  So a caller that
        sees its result also sees it in :meth:`metrics_snapshot`.

        The stages are designed to sum: ``request ≈ shrink +
        admission + batch_window + kernel`` (the remainder is
        result-delivery slack), which the benchmark stage-breakdown
        sections assert against end-to-end latency.
        """
        req.completed_at = time.perf_counter()
        ok = not isinstance(outcome, BaseException)
        m = self.metrics
        m.record_completion(req.latency_s, ok=ok)
        if kernel_t0 is not None:
            traced = {"req": req.trace_req, "parent": req.trace_root}
            m.stage("batch_window", req.admitted_at, kernel_t0, **traced)
            m.stage("kernel", kernel_t0, kernel_t1, **traced)
            m.stage(
                "request",
                req.submitted_at,
                req.completed_at,
                req=req.trace_req,
                parent=req.trace_parent,
                sid=req.trace_root,
                args={"asset": req.asset.name, "ok": ok},
            )
        req.resolve(outcome)
