"""Request batching: fuse concurrent decode requests into one kernel.

The fused kernels decode many tasks of one plan in one call; this
module applies that *across requests*.  The service's dispatcher sends
a batch off as soon as it is free (dispatch on idle): requests that
arrive while one batch runs queue here and go out together as the
next one — ONE :func:`~repro.parallel.fused.fused_run_multi`
invocation — ``S`` requests of ``T_i`` tasks each become one plan of
``sum(T_i)`` tasks, so the per-call overhead (on numpy, the
per-iteration interpreter overhead) that dominates small
(low-capacity) decodes is paid once per batch instead of once per
request.  A lone request never waits for companions.

Fusion compatibility is expressed as a *fuse key*: requests sharing
model content, lanes and output dtype with a static model may ride in
one batch (different assets and capacities included — the kernel only
sees concatenated word streams, and the numpy walk splits the plan
into lockstep groups itself, DESIGN.md §8).  Adaptive-model requests
get a unique key each, because their per-index model ids are
positional and do not survive output rebasing; they dispatch alone
through the same machinery.

The batcher is a pure policy object: it holds pending requests and
decides *what* to dispatch.  Locking and the dispatch loop live in
:class:`~repro.serve.service.RecoilService`, which calls into the
batcher only under its own condition variable.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.parallel.fused import StreamSegment
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
        #: the service; the wait for a free dispatcher — the
        #: ``batch_window`` stage — is measured from here).
        self.admitted_at: float | None = None
        #: tracing linkage (``repro.trace``): request id, root span id,
        #: and the caller's parent span (the network front-end's
        #: request span) — all ``None`` when tracing is disabled.
        self.trace_req: int | None = None
        self.trace_root: int | None = None
        self.trace_parent: int | None = None
        self._future: Future = Future()
        #: set by the service when the request ends, before its
        #: future resolves.
        self.completed_at: float | None = None
        # Requests with equal keys may share one fused kernel call.
        if asset.provider.is_static:
            self.fuse_key: tuple = (
                provider_fingerprint(asset.provider),
                asset.lanes,
                asset.out_dtype,
            )
        else:
            # Adaptive model ids are positional in the original
            # sequence: never fused across requests.
            self.fuse_key = (id(self),)

    # -- batching ------------------------------------------------------

    @property
    def cost_symbols(self) -> int:
        """Admission-control weight (estimated walked symbols)."""
        return self.variant.cost_symbols

    def segment(self) -> StreamSegment:
        return StreamSegment(
            words=self.asset.words,
            columns=self.variant.columns,
            num_symbols=self.asset.num_symbols,
        )

    # -- completion (a stdlib Future carries the handoff) --------------

    def resolve(self, outcome: np.ndarray | BaseException) -> None:
        """Hand the caller its symbols, or the exception to raise.
        Only :meth:`RecoilService._complete
        <repro.serve.service.RecoilService._complete>` calls this,
        after it has stamped ``completed_at`` and counted the request."""
        if isinstance(outcome, BaseException):
            self._future.set_exception(outcome)
        else:
            self._future.set_result(outcome)

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


class RequestBatcher:
    """Pending-request queue with fuse-group batch selection.

    NOT thread-safe by itself — the owning service serializes access
    (its condition variable also provides the waiting).
    """

    def __init__(self, max_requests: int) -> None:
        #: the most requests one batch may carry (at least 1:
        #: :class:`~repro.serve.service.ServiceConfig` checks it).
        self.max_requests = max_requests
        self._pending: deque[DecodeRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: DecodeRequest) -> None:
        self._pending.append(request)

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

    def pop_batch(self) -> list[DecodeRequest]:
        """Remove and return the next batch: the head request's fuse
        group in queue order, up to ``max_requests`` requests.

        Requests with other fuse keys, and same-key requests past the
        cap, keep their queue order and form later batches.
        """
        if not self._pending:
            return []
        head_key = self._pending[0].fuse_key
        group: list[DecodeRequest] = []
        for req in self._pending:
            if req.fuse_key != head_key:
                continue
            group.append(req)
            if len(group) == self.max_requests:
                break
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
