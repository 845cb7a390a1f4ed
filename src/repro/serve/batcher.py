"""Request batching: fuse concurrent decode requests into one kernel.

PRs 1–2 made independent decodes advance as a single ``(P*K,)``-wide
state vector; this module applies that *across requests*.  Concurrent
``decompress`` calls are collected over a short window (or until the
batch's lane budget fills) and dispatched as ONE
:func:`~repro.parallel.fused.fused_run_multi` invocation — ``S``
requests of ``T_i`` tasks each become one ``(sum(T_i), K)`` state
matrix, so the per-iteration interpreter overhead that dominates small
(low-capacity) decodes is paid once per batch instead of once per
request.

Fusion compatibility is expressed as a *fuse key*: requests sharing
``(provider, lanes)`` with a static model may ride in one batch
(different assets included — the kernel only sees concatenated word
streams).  Adaptive-model requests get a unique key each, because
their per-index model ids are positional and do not survive output
rebasing; they dispatch alone through the same machinery.

The batcher is a pure policy object: it holds pending requests and
decides *what* to dispatch.  Locking and the dispatch loop live in
:class:`~repro.serve.service.RecoilService`, which calls into the
batcher only under its own condition variable.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.parallel.fused import StreamSegment, geometry_bucket
from repro.rans.adaptive import provider_fingerprint
from repro.serve.store import ShrunkVariant, StoredAsset


class DecodeRequest:
    """One client decompress request travelling through the service."""

    def __init__(
        self,
        asset: StoredAsset,
        variant: ShrunkVariant,
        deadline: float | None = None,
        submitted_at: float | None = None,
    ) -> None:
        self.asset = asset
        self.variant = variant
        #: absolute ``perf_counter`` time after which the dispatcher
        #: fails the request with DeadlineError instead of running it.
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        #: when the client's submit() began (before the shrink) — the
        #: start of the end-to-end stage clock (defaults to enqueue).
        self.submitted_at = (
            submitted_at if submitted_at is not None else self.enqueued_at
        )
        #: when admission released the request into the batcher (set by
        #: the service; batch-window residency is measured from here).
        self.admitted_at: float | None = None
        #: tracing linkage (``repro.trace``): request id, root span id,
        #: and the caller's parent span (the network front-end's
        #: request span) — all ``None`` when tracing is disabled.
        self.trace_req: int | None = None
        self.trace_root: int | None = None
        self.trace_parent: int | None = None
        self._future: Future = Future()
        self.completed_at: float | None = None
        # Requests with equal keys may share one fused kernel call.
        if asset.provider.is_static:
            self.fuse_key: tuple = (
                provider_fingerprint(asset.provider),
                asset.lanes,
                asset.out_dtype,
                geometry_bucket(variant.tasks, asset.lanes),
            )
        else:
            # Adaptive model ids are positional in the original
            # sequence: never fused across requests.
            self.fuse_key = (id(self),)

    # -- batching ------------------------------------------------------

    @property
    def task_lanes(self) -> int:
        """Lane-budget weight: decoder threads this request adds."""
        return len(self.variant.tasks)

    @property
    def cost_symbols(self) -> int:
        """Admission-control weight (estimated walked symbols)."""
        return self.variant.cost_symbols

    def segment(self) -> StreamSegment:
        return StreamSegment(
            words=self.asset.words,
            tasks=self.variant.tasks,
            num_symbols=self.asset.num_symbols,
            columns=self.variant.columns,
        )

    # -- completion (a stdlib Future carries the handoff) --------------

    def set_result(self, symbols: np.ndarray) -> None:
        self.completed_at = time.perf_counter()
        self._future.set_result(symbols)

    def set_error(self, error: Exception) -> None:
        self.completed_at = time.perf_counter()
        self._future.set_exception(error)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until completion; raises the service-side error (or
        :class:`TimeoutError`)."""
        return self._future.result(timeout)

    @property
    def done(self) -> bool:
        return self._future.done()

    @property
    def latency_s(self) -> float:
        if self.completed_at is None:
            return 0.0
        return self.completed_at - self.enqueued_at


@dataclass
class BatchPolicy:
    """When to close a batch and hand it to the kernel.

    A batch dispatches when *either* the oldest pending request has
    waited ``window_s`` (latency bound) *or* the head fuse-group
    already saturates a cap (work bound) — whichever comes first.
    ``max_task_lanes`` is the lane budget: total decoder threads
    (tasks) a single fused call may carry, the knob that keeps one
    batch's state matrix at a width where vectorization, not memory
    traffic, dominates.
    """

    window_s: float = 0.002
    max_requests: int = 64
    max_task_lanes: int = 512

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.max_task_lanes < 1:
            raise ValueError(
                f"max_task_lanes must be >= 1, got {self.max_task_lanes}"
            )


class RequestBatcher:
    """Pending-request queue with fuse-group batch selection.

    NOT thread-safe by itself — the owning service serializes access
    (its condition variable also provides the waiting).
    """

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        self._pending: deque[DecodeRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: DecodeRequest) -> None:
        self._pending.append(request)

    # ------------------------------------------------------------------

    def _head_group(self) -> tuple[list[DecodeRequest], bool]:
        """The dispatchable prefix of the head fuse-group.

        Returns ``(requests, saturated)`` where ``saturated`` means a
        cap was hit (more same-key work is waiting behind the batch).
        """
        p = self.policy
        head_key = self._pending[0].fuse_key
        group: list[DecodeRequest] = []
        lanes = 0
        for req in self._pending:
            if req.fuse_key != head_key:
                continue
            if group and (
                len(group) >= p.max_requests
                or lanes + req.task_lanes > p.max_task_lanes
            ):
                return group, True
            group.append(req)
            lanes += req.task_lanes
        return group, False

    def deadline(self) -> float | None:
        """perf_counter time at which the dispatcher must wake: the
        head request's window end, or the earliest pending request
        deadline if that comes sooner (an expired request must be
        failed promptly, not after a full window).  None when empty."""
        if not self._pending:
            return None
        when = self._pending[0].enqueued_at + self.policy.window_s
        for req in self._pending:
            if req.deadline is not None and req.deadline < when:
                when = req.deadline
        return when

    def pop_expired(self, now: float | None = None) -> list[DecodeRequest]:
        """Remove and return every pending request whose deadline has
        passed (the dispatcher fails them without kernel time)."""
        if now is None:
            now = time.perf_counter()
        expired = [
            r
            for r in self._pending
            if r.deadline is not None and now >= r.deadline
        ]
        if expired:
            dead = set(map(id, expired))
            self._pending = deque(
                r for r in self._pending if id(r) not in dead
            )
        return expired

    def ready(self, now: float | None = None) -> bool:
        """Should a batch dispatch right now?"""
        if not self._pending:
            return False
        if now is None:
            now = time.perf_counter()
        if now >= self.deadline():
            return True
        _, saturated = self._head_group()
        return saturated

    def pop_batch(self) -> list[DecodeRequest]:
        """Remove and return the next batch (head fuse-group, capped).

        Requests with other fuse keys keep their queue order and form
        later batches.
        """
        if not self._pending:
            return []
        group, _ = self._head_group()
        members = set(map(id, group))
        self._pending = deque(
            r for r in self._pending if id(r) not in members
        )
        return group

    def drain(self) -> list[DecodeRequest]:
        """Remove and return everything (service shutdown)."""
        drained = list(self._pending)
        self._pending.clear()
        return drained
