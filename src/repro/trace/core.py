"""Span registry and ring buffer for cross-layer request tracing.

Always compiled in, off by default (DESIGN.md §17).  The discipline
mirrors :mod:`repro.faults`: a single module-global flag guards every
entry point, so with tracing disabled the per-request cost is one
attribute load and one branch — no lock, no clock read, no allocation.
Enabled, spans append to a bounded ``collections.deque`` ring (CPython
deque appends are GIL-atomic, so the hot path still takes no explicit
lock; the module lock only serializes enable/disable/drain).

Span model:

- A **request id** (``new_request()``) names one client request as it
  crosses layers: the network read, the service queue, the fused
  batch, the response write all tag their spans with it, so a
  timeline can be filtered to one request end-to-end.
- A **span id** names one span; ``parent`` links child spans (a
  kernel dispatch inside a request) into a tree.  Ids are allocated
  from one process-wide counter.
- Timestamps are ``time.perf_counter()`` seconds.

Spans record as ``X`` (complete) events in the Chrome trace-event
sense — one record per finished span, never begin/end pairs — so an
interrupted operation can lose only its own unreported span, never
unbalance the stream.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

#: default ring capacity (spans); at ~10 spans per request this holds
#: the last ~6500 requests.
DEFAULT_CAPACITY = 65_536

#: returned by :func:`ts` when tracing is disabled — a module-level
#: constant, so the disabled fast path allocates nothing.
_ZERO = 0.0


class Span:
    """One finished span (a Chrome ``X`` event plus linkage ids)."""

    __slots__ = (
        "name", "cat", "ts", "dur", "pid", "tid", "sid", "parent",
        "req", "args",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        sid: int,
        parent: int | None,
        req: int | None,
        args: dict | None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.sid = sid
        self.parent = parent
        self.req = req
        self.args = args

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, ts={self.ts:.6f}, dur={self.dur:.6f}, "
            f"sid={self.sid}, parent={self.parent}, req={self.req})"
        )


_lock = threading.Lock()
_buffer: deque[Span] | None = None
#: lock-free fast-path flag: True iff tracing is collecting.
_enabled = False
#: one id space for spans AND requests, never reset — ids stay unique
#: across enable/disable cycles.
_ids = itertools.count(1)
#: spans evicted from the ring since enable() (overflow visibility).
_dropped = 0


def enabled() -> bool:
    """Whether spans are being collected (lock-free)."""
    return _enabled


def enable(capacity: int = DEFAULT_CAPACITY) -> None:
    """Start collecting spans into a fresh ring of ``capacity``."""
    global _buffer, _enabled, _dropped
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    with _lock:
        _buffer = deque(maxlen=capacity)
        _dropped = 0
        _enabled = True


def disable() -> None:
    """Stop collecting (the ring keeps its spans until re-enabled)."""
    global _enabled
    with _lock:
        _enabled = False


@contextmanager
def tracing(capacity: int = DEFAULT_CAPACITY):
    """Collect spans for the dynamic extent of the ``with`` block."""
    enable(capacity)
    try:
        yield
    finally:
        disable()


def ts() -> float:
    """A trace timestamp, or ``0.0`` (module constant — no allocation)
    when tracing is disabled."""
    if not _enabled:
        return _ZERO
    return time.perf_counter()


def new_request() -> int | None:
    """Allocate a request id (``None`` when disabled)."""
    if not _enabled:
        return None
    return next(_ids)


def next_span_id() -> int | None:
    """Reserve a span id before its span finishes, so children created
    meanwhile can name it as ``parent`` (``None`` when disabled)."""
    if not _enabled:
        return None
    return next(_ids)


def record_span(
    name: str,
    t0: float,
    t1: float | None = None,
    *,
    cat: str = "serve",
    req: int | None = None,
    parent: int | None = None,
    args: dict | None = None,
    sid: int | None = None,
) -> int | None:
    """Record one finished span; returns its span id.

    ``t0``/``t1`` are ``perf_counter`` seconds (``t1`` defaults to
    now).  ``sid`` registers a pre-reserved id
    (:func:`next_span_id`).  No-op returning ``None`` when disabled —
    callers never branch.
    """
    if not _enabled:
        return None
    buf = _buffer
    if buf is None:  # pragma: no cover - disable/enable race guard
        return None
    if t1 is None:
        t1 = time.perf_counter()
    if sid is None:
        sid = next(_ids)
    before = len(buf)
    buf.append(
        Span(
            name,
            cat,
            t0,
            max(t1 - t0, 0.0),
            os.getpid(),
            threading.get_native_id(),
            sid,
            parent,
            req,
            args,
        )
    )
    if before == buf.maxlen:
        global _dropped
        _dropped += 1  # benign race: a lower bound, not an exact count
    return sid


def record_instant(
    name: str,
    *,
    cat: str = "serve",
    req: int | None = None,
    parent: int | None = None,
    args: dict | None = None,
) -> int | None:
    """Record a zero-duration marker (an accepted connection)."""
    if not _enabled:
        return None
    now = time.perf_counter()
    return record_span(
        name, now, now, cat=cat, req=req, parent=parent, args=args
    )


# -- draining ---------------------------------------------------------------


def snapshot() -> list[Span]:
    """Copy of the ring's spans, oldest first (collection continues)."""
    with _lock:
        return list(_buffer) if _buffer is not None else []


def drain() -> list[Span]:
    """Remove and return every buffered span."""
    with _lock:
        if _buffer is None:
            return []
        out = list(_buffer)
        _buffer.clear()
        return out


def dropped() -> int:
    """Spans evicted by ring overflow since :func:`enable`."""
    return _dropped


def reset() -> None:
    """Disable and forget everything (test hygiene)."""
    global _buffer, _enabled, _dropped
    with _lock:
        _enabled = False
        _buffer = None
        _dropped = 0
