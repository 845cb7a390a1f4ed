"""Per-layer spans for the traced run, and the metrics built from them.

The spans are recorded from the benchmark's own files: the wrappers
below replace layer functions with versions that time each call into
``repro.trace.record_span`` and then call the original.  Server-side
wrappers are installed by ``traced_server.py`` before it hands off to
``repro.cli``; client-side ones by the load generator.  Spans the
program already records under ``--trace`` (the ``net.*`` request
phases, the batcher's window, hydration) are used as they are.

Self time: every span of one request, client and server, is placed in
one tree by time containment (both processes read the same
``CLOCK_MONOTONIC`` through ``time.perf_counter``).  A span's self
time is its duration minus what its children cover, so per request
the layer self times add up to the time some layer span covers, and
``unattributed_ms`` is the rest of the end-to-end window.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import time

from repro import trace
from repro.serve import protocol

#: layers in report order.
LAYERS = ("net", "service", "store", "core", "parallel", "rans")

#: (module, attribute path, layer) of every server-side function the
#: traced server wraps; the span is named after the attribute path.
SERVER_WRAPS = (
    ("repro.serve.service", "RecoilService.serve", "service"),
    ("repro.serve.service", "RecoilService.decompress", "service"),
    ("repro.serve.service", "RecoilService.put_container", "service"),
    ("repro.serve.store", "AssetStore.shrunk", "store"),
    ("repro.serve.store", "AssetStore.put_container", "store"),
    ("repro.serve.disk", "DiskStore.put", "store"),
    ("repro.serve.disk", "DiskStore.recover", "store"),
    ("repro.serve.store", "parse_container", "core"),
    ("repro.serve.store", "serialize_metadata", "core"),
    ("repro.serve.store", "build_thread_tasks", "core"),
    ("repro.core.metadata", "RecoilMetadata.combine", "core"),
    ("repro.serve.service", "fused_run_multi", "parallel"),
)

#: the same for the load generator's calls.
CLIENT_WRAPS = (
    ("repro.serve.client", "RecoilClient.serve", "net"),
    ("repro.serve.client", "RecoilClient.decompress", "net"),
    ("repro.serve.client", "RecoilClient.put_container", "net"),
    ("repro.core.api", "recoil_compress", "core"),
    ("repro.core.splitter", "SplitSelector.select", "core"),
    ("repro.rans.interleaved", "InterleavedEncoder.encode", "rans"),
    ("workloads", "verify", "net"),
)

#: spans the program records itself under ``--trace``, by layer.
PROGRAM_SPANS = {
    "net.request": "net",
    "net.read": "net",
    "net.handle": "net",
    "net.write": "net",
    "serve.admission": "service",
    "serve.batch_window": "service",
    "store.hydrate": "store",
}

SERVER_LAYERS = {
    **PROGRAM_SPANS,
    **{path: layer for _, path, layer in SERVER_WRAPS},
}
CLIENT_LAYERS = {path: layer for _, path, layer in CLIENT_WRAPS}

#: wire ops of the workloads' requests (the benchmark's own metrics
#: and trace fetches are left out).
REQUEST_OPS = {protocol.OP_SERVE, protocol.OP_DECODE, protocol.OP_PUT}


def _shrunk_args(args, result) -> dict:
    return {"hit": bool(result[1])}


def _kernel_args(args, result) -> dict:
    stats = result.stats
    return {
        "tasks": stats.tasks,
        "lanes": args[1],
        "iterations": stats.iterations,
        "decoded": stats.symbols_decoded,
        "symbols": int(result.out.size),
    }


#: span args taken from a wrapped call's arguments and return value.
_ARGS_OF = {
    "AssetStore.shrunk": _shrunk_args,
    "fused_run_multi": _kernel_args,
}


def _install(wraps):
    """Wrap every function in ``wraps``; returns a callable that puts
    the originals back."""
    originals = []
    for module, path, layer in wraps:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _traced(fn, path, layer, _ARGS_OF.get(path)))

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


def _traced(fn, span: str, layer: str, args_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            extra = None
            if args_of is not None and result is not None:
                extra = args_of(args, result)
            trace.record_span(span, t0, cat=layer, args=extra)

    return traced


def install_server_spans():
    """Wrap the server-side layer functions (traced server only)."""
    return _install(SERVER_WRAPS)


def install_client_spans():
    """Wrap the load generator's layer calls for a traced phase;
    returns the callable that unwraps them."""
    return _install(CLIENT_WRAPS)


class Span:
    """A span reduced to what the accounting needs (seconds)."""

    __slots__ = ("name", "layer", "t0", "t1", "args", "self_s")

    def __init__(self, name, layer, t0, t1, args=None) -> None:
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t1
        self.args = args or {}
        self.self_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def server_spans(doc: dict) -> list[Span]:
    """Layer spans out of a Chrome trace document from ``OP_TRACE``."""
    out = []
    for ev in doc.get("traceEvents", ()):
        layer = SERVER_LAYERS.get(ev.get("name"))
        if layer is None or ev.get("ph") != "X":
            continue
        t0 = ev["ts"] / 1e6
        out.append(
            Span(ev["name"], layer, t0, t0 + ev["dur"] / 1e6, ev.get("args"))
        )
    return out


def client_spans(spans) -> list[Span]:
    """Layer spans out of the load generator's own span ring."""
    return [
        Span(s.name, CLIENT_LAYERS[s.name], s.ts, s.ts + s.dur, s.args)
        for s in spans
        if s.name in CLIENT_LAYERS
    ]


def assign_self_times(spans: list[Span], t0: float, t1: float) -> float:
    """Nest ``spans`` by time containment inside the window
    ``[t0, t1]``, set each span's ``self_s`` and return the window
    time no span covers.

    A span that starts inside another becomes its child and is clipped
    to the parent's end, so siblings never overlap and the self times
    add up exactly to the covered time.
    """
    stack: list[tuple[Span, float]] = []  # span, clipped end
    covered = 0.0
    for s in sorted(spans, key=lambda s: (s.t0, -s.t1)):
        a, b = max(s.t0, t0), min(s.t1, t1)
        while stack and a >= stack[-1][1]:
            stack.pop()
        if stack:
            b = min(b, stack[-1][1])
        s.self_s = max(b - a, 0.0)
        if s.self_s == 0.0:
            continue
        if stack:
            stack[-1][0].self_s -= s.self_s
        else:
            covered += s.self_s
        stack.append((s, b))
    return (t1 - t0) - covered


def _group_by_request(windows, client, server) -> list[list[Span]]:
    """Every span that belongs to a timed request, per request.

    Client spans go with the end-to-end window they start in; server
    spans with the server-side request span (``net.request``) they
    start in, and that one with the client window it starts in.

    :raises RuntimeError: a client call without its server request
        span (a dropped span would bias every figure).
    """
    starts = [w[0] for w in windows]

    def window_of(t: float) -> int | None:
        i = bisect.bisect_right(starts, t) - 1
        return i if i >= 0 and t <= windows[i][1] else None

    groups: list[list[Span]] = [[] for _ in windows]
    calls = 0
    for s in client:
        i = window_of(s.t0)
        if i is not None:
            groups[i].append(s)
            calls += s.name.startswith("RecoilClient.")
    roots = sorted(
        (s for s in server
         if s.name == "net.request" and s.args.get("op") in REQUEST_OPS),
        key=lambda s: s.t0,
    )
    owners = [window_of(r.t0) for r in roots]
    if len(roots) != calls or None in owners:
        raise RuntimeError(
            f"traced run lost spans: {calls} client calls, "
            f"{len(roots)} server request spans"
        )
    root_starts = [r.t0 for r in roots]
    for r, i in zip(roots, owners):
        groups[i].append(r)
    for s in server:
        if s.name == "net.request":
            continue
        j = bisect.bisect_right(root_starts, s.t0) - 1
        if j >= 0 and s.t0 <= roots[j].t1:
            groups[owners[j]].append(s)
    return groups


def _mean_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.fmean(values) if values else 0.0


def layer_metrics(windows, client, server, setup) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    :param windows: ``(t0, t1)`` end-to-end window per timed request,
        in order.
    :param client: the load generator's layer spans.
    :param server: the server's layer spans of the timed phase.
    :param setup: the server's layer spans from its start to the end
        of the warm-up pass.

    Per-request metrics (``*.self_ms``, ``net.*_ms``,
    ``service.batch_wait_ms``) average over the timed requests;
    per-call metrics (``store.shrink_*``, ``core.*_ms``, ...) over
    every call.  A layer that never runs on a workload reads 0 there.
    """
    groups = _group_by_request(windows, client, server)
    unattributed = [
        assign_self_times(spans, t0, t1)
        for (t0, t1), spans in zip(windows, groups)
    ]
    n = len(windows)
    spans = [s for group in groups for s in group]

    def per_request_ms(pred, value=lambda s: s.self_s) -> float:
        return 1e3 * sum(value(s) for s in spans if pred(s)) / n

    # Per-call means cover the server's set-up too: a cold start's
    # shrink misses and parses are calls like any other.
    calls = spans + setup

    def per_call_ms(name, pred=lambda s: True, pool=calls) -> float:
        return _mean_ms(s.dur for s in pool if s.name == name and pred(s))

    def duration(s):
        return s.dur

    out = {
        "trace.e2e_ms": _mean_ms(t1 - t0 for t0, t1 in windows),
        "trace.server_ms": per_request_ms(
            lambda s: s.name == "net.request", duration),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_request_ms(
            lambda s, layer=layer: s.layer == layer
        )
    out["unattributed_ms"] = _mean_ms(unattributed)

    out["net.read_ms"] = per_request_ms(
        lambda s: s.name == "net.read", duration)
    out["net.write_ms"] = per_request_ms(
        lambda s: s.name == "net.write", duration)
    out["net.client_ms"] = per_request_ms(
        lambda s: s.name.startswith("RecoilClient.") or s.name == "verify")
    out["service.batch_wait_ms"] = per_request_ms(
        lambda s: s.name == "serve.batch_window", duration)
    out["store.shrink_hit_ms"] = per_call_ms(
        "AssetStore.shrunk", lambda s: s.args.get("hit"))
    out["store.shrink_miss_ms"] = per_call_ms(
        "AssetStore.shrunk", lambda s: not s.args.get("hit"))
    out["store.persist_ms"] = per_call_ms("DiskStore.put")
    out["store.recover_ms"] = 1e3 * sum(
        s.dur for s in setup
        if s.name in ("DiskStore.recover", "store.hydrate")
    )
    out["core.parse_ms"] = per_call_ms("parse_container")
    out["core.combine_ms"] = per_call_ms("RecoilMetadata.combine")
    out["core.serialize_ms"] = per_call_ms("serialize_metadata")
    out["core.tasks_ms"] = per_call_ms("build_thread_tasks")
    out["core.split_ms"] = per_call_ms("SplitSelector.select")
    out["rans.encode_ms"] = per_call_ms("InterleavedEncoder.encode")

    kernels = [s for s in spans if s.name == "fused_run_multi"]
    out["parallel.kernel_ms"] = per_call_ms("fused_run_multi", pool=spans)
    for cap in (4, 16, 64):
        out[f"parallel.kernel_ms.c{cap}"] = per_call_ms(
            "fused_run_multi", lambda s, cap=cap: s.args.get("tasks") == cap,
            pool=spans,
        )
    decoded = sum(s.args["decoded"] for s in kernels)
    useful = sum(s.args["symbols"] for s in kernels)
    slots = sum(
        s.args["iterations"] * s.args["tasks"] * s.args["lanes"]
        for s in kernels
    )
    kernel_s = sum(s.dur for s in kernels)
    out["parallel.msym_per_s"] = useful / kernel_s / 1e6 if kernel_s else 0.0
    out["parallel.wasted_pct"] = (
        100.0 * (decoded - useful) / decoded if decoded else 0.0
    )
    out["parallel.lane_util"] = decoded / slots if slots else 0.0
    return out
