"""Chrome trace-event export and schema validation.

Converts the span ring (:mod:`repro.trace.core`) into the Chrome
trace-event JSON format — ``{"traceEvents": [...]}`` with ``X``
(complete), ``i`` (instant) and ``M`` (metadata) events — loadable in
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev).

An ``M`` ``process_name`` event labels the recording process
``recoil-serve``.  Parent/child span ids and the request id ride in
each event's ``args``, which is where Perfetto surfaces them on click.

:func:`validate_chrome_trace` is the schema checker the tests and the
``recoil trace --validate`` CLI share: field presence and types, B/E
balance (per pid/tid, name-matched), non-negative ``dur``.
"""

from __future__ import annotations

import json

from ..errors import TraceError
from .core import Span

def chrome_trace(spans: list[Span]) -> dict:
    """Render spans as a Chrome trace-event document (dict)."""
    events: list[dict] = []
    pids: set[int] = set()
    for s in spans:
        pids.add(s.pid)
        args = {"span_id": s.sid}
        if s.parent is not None:
            args["parent_id"] = s.parent
        if s.req is not None:
            args["request_id"] = s.req
        if s.args:
            args.update(s.args)
        ev = {
            "name": s.name,
            "cat": s.cat,
            "ph": "i" if s.dur == 0.0 else "X",
            "ts": s.ts * 1e6,  # perf_counter seconds -> microseconds
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        }
        if ev["ph"] == "X":
            ev["dur"] = s.dur * 1e6
        else:
            ev["s"] = "t"  # instant scope: thread
        events.append(ev)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "recoil-serve"},
        }
        for pid in sorted(pids)
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.trace"},
    }


def write_chrome_trace(path: str, spans: list[Span]) -> dict:
    """Write spans as Chrome trace JSON to ``path``; returns the doc."""
    doc = chrome_trace(spans)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


# -- validation -------------------------------------------------------------

_DUR_PHASES = {"X"}
_KNOWN_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(doc: dict) -> dict:
    """Schema-check a Chrome trace document; raise :class:`TraceError`
    on any violation.

    Checks: top-level shape, required fields per phase
    (name/ph/ts/pid/tid; dur on ``X``), numeric types, non-negative
    durations, and B/E balance per (pid, tid) with matching names.
    Returns summary stats (event/span counts, pids, request ids) for
    callers that print.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError("trace document must be a dict with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise TraceError("'traceEvents' must be a list")

    open_stacks: dict[tuple, list[str]] = {}
    pids: set[int] = set()
    requests: set[int] = set()
    spans = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TraceError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            raise TraceError(f"event {i}: unknown phase {ph!r}")
        for field in ("name", "pid", "tid"):
            if field not in ev:
                raise TraceError(f"event {i} ({ph}): missing {field!r}")
        if not isinstance(ev["name"], str) or not ev["name"]:
            raise TraceError(f"event {i}: 'name' must be a non-empty string")
        for field in ("pid", "tid"):
            if not isinstance(ev[field], int):
                raise TraceError(f"event {i}: {field!r} must be an int")
        if ph == "M":
            continue  # metadata carries no timestamp
        if "ts" not in ev:
            raise TraceError(f"event {i} ({ph}): missing 'ts'")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            raise TraceError(f"event {i}: 'ts' must be a non-negative number")
        key = (ev["pid"], ev["tid"])
        pids.add(ev["pid"])
        if ph in _DUR_PHASES:
            if "dur" not in ev:
                raise TraceError(f"event {i} (X): missing 'dur'")
            if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
                raise TraceError(
                    f"event {i}: 'dur' must be a non-negative number"
                )
            spans += 1
        elif ph == "B":
            open_stacks.setdefault(key, []).append(ev["name"])
            spans += 1
        elif ph == "E":
            stack = open_stacks.get(key)
            if not stack:
                raise TraceError(
                    f"event {i}: 'E' for {ev['name']!r} with no open 'B' "
                    f"on pid={key[0]} tid={key[1]}"
                )
            opened = stack.pop()
            if opened != ev["name"]:
                raise TraceError(
                    f"event {i}: 'E' name {ev['name']!r} does not match "
                    f"open 'B' {opened!r}"
                )
        args = ev.get("args")
        if isinstance(args, dict) and "request_id" in args:
            requests.add(args["request_id"])
    unbalanced = {
        key: stack for key, stack in open_stacks.items() if stack
    }
    if unbalanced:
        raise TraceError(
            f"unbalanced B/E events: {len(unbalanced)} thread(s) with open "
            f"spans, e.g. {next(iter(unbalanced.values()))!r}"
        )
    return {
        "events": len(events),
        "spans": spans,
        "pids": sorted(pids),
        "requests": len(requests),
    }


def validate_chrome_trace_file(path: str) -> dict:
    """Load and validate a trace file; returns the summary stats."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
    return validate_chrome_trace(doc)
