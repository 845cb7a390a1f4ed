"""Open-loop load generator and tail-latency harness (DESIGN.md §16).

Closed-loop clients (issue request, wait, repeat) hide overload: when
the server slows down, a closed loop *offers less load*, so measured
latency stays flat exactly when real users would be queueing —
coordinated omission.  This harness is **open-loop**: request arrival
times are drawn up front from a Poisson process at the offered rate
and each request runs on its own thread at its scheduled instant,
whether or not earlier requests have finished.  Latency is measured
from the *scheduled* arrival, so scheduler lag and server queueing
both count against the tail.

Workload shape follows the paper's content-delivery scenario:

- **Zipf asset popularity** — request ``k`` assets with weight
  ``1/rank^s`` (a few hot assets dominate, the shrink cache is
  exercised realistically);
- **mixed client capacities** — each request advertises a decoder
  capacity drawn from ``capacities``, as heterogeneous clients would;
- **hostile personas** — a configurable fraction of clients misbehave:
  ``slow`` readers drain responses a few hundred bytes at a time with
  sleeps in between (write-deadline bait), ``kill`` clients disconnect
  with an RST mid-response (a kill -9'd peer).  The server must shrug
  both off while the well-behaved cohort's responses stay
  bit-identical.

Percentile note: ``p999`` degrades to the sample maximum below 1000
samples — short smoke runs report it, but only runs with thousands of
requests make it meaningful (docs/BENCHMARKS.md).

:func:`run_load` drives one run against an already-listening server;
:func:`run_load_bench` is the self-contained harness (service + server
+ clean and faulted runs) behind ``recoil load-bench`` and
``benchmarks/bench_latency.py``.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from collections import Counter
from random import Random

import numpy as np

from repro import faults as fault_injection
from repro import trace
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
)
from repro.serve import protocol
from repro.serve.client import RecoilClient
from repro.serve.service import RecoilService, ServiceConfig
from repro.trace.hist import LatencyHistogram

#: default persona mix: mostly honest, a pinch of hostile.
DEFAULT_PERSONAS = {"normal": 0.90, "slow": 0.05, "kill": 0.05}


def zipf_weights(n: int, s: float) -> list[float]:
    """Normalized Zipf popularity weights for ``n`` ranked items."""
    raw = [1.0 / (rank**s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


# ---------------------------------------------------------------------------
# Personas.
# ---------------------------------------------------------------------------


def _normal_request(
    host: str,
    port: int,
    name: str,
    capacity: int,
    expected: np.ndarray | None,
    timeout_s: float,
    seed: int,
) -> str:
    try:
        with RecoilClient(
            host, port, timeout_s=timeout_s, seed=seed
        ) as client:
            out = client.decompress(name, capacity)
    except AdmissionError:
        return "shed"
    except ProtocolError:
        return "protocol_error"
    except ReproError as exc:
        return f"error_{type(exc).__name__}"
    except TimeoutError:
        return "timeout"
    except OSError:
        return "transport"
    if expected is not None and not np.array_equal(out, expected):
        return "mismatch"
    return "ok"


def _parse_buffered_response(buf: bytes) -> bytes | None:
    """Parse a fully buffered streamed response; ``None`` if the
    buffer ends mid-response (the server killed the connection)."""
    pos = 0
    payload_parts: list[bytes] = []
    total = None
    while True:
        if pos + protocol.HEADER_BYTES > len(buf):
            return None
        ftype, length = protocol.parse_header(
            buf[pos : pos + protocol.HEADER_BYTES],
            protocol.RESPONSE_TYPES,
        )
        pos += protocol.HEADER_BYTES
        if pos + length > len(buf):
            return None
        body = buf[pos : pos + length]
        pos += length
        if ftype == protocol.ST_STREAM_BEGIN:
            _, _, total, _ = protocol.parse_stream_begin(body)
        elif ftype == protocol.ST_STREAM_CHUNK:
            payload_parts.append(body)
        elif ftype == protocol.ST_STREAM_END:
            payload = b"".join(payload_parts)
            if total is None or len(payload) != total:
                raise ProtocolError("stream bookkeeping mismatch")
            if protocol.crc32(payload) != protocol.parse_stream_end(body):
                raise ProtocolError("stream payload failed CRC-32")
            return payload
        elif ftype == protocol.ST_ERROR:
            raise protocol.parse_error(body)
        elif ftype == protocol.ST_RETRY_AFTER:
            raise AdmissionError("shed while reading slowly")
        else:
            raise ProtocolError(f"unexpected frame 0x{ftype:02x}")


def _slow_request(
    host: str,
    port: int,
    name: str,
    capacity: int,
    expected: np.ndarray | None,
    timeout_s: float,
    chunk_bytes: int,
    sleep_s: float,
) -> str:
    """A slow reader: drains the response a dribble at a time.  Either
    it limps to a complete (still bit-identical) response or the
    server's write deadline kills it — both are acceptable."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        # A tiny receive buffer makes the server feel the backpressure.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(timeout_s)
        sock.connect((host, port))
        sock.sendall(protocol.encode_decode_request(name, capacity))
        buf = bytearray()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(chunk_bytes)
            except (TimeoutError, OSError):
                break
            if not chunk:
                break
            buf += chunk
            # The server keeps the connection open after a complete
            # response — stop as soon as the buffer parses complete
            # instead of waiting out the read timeout.
            try:
                if _parse_buffered_response(bytes(buf)) is not None:
                    break
            except (ProtocolError, ReproError):
                break  # classified below
            time.sleep(sleep_s)
    except OSError:
        return "slow_killed"
    finally:
        try:
            sock.close()
        except OSError:
            pass
    try:
        payload = _parse_buffered_response(bytes(buf))
    except (ProtocolError, ReproError):
        return "slow_error"
    if payload is None:
        return "slow_killed"
    if expected is not None and payload != expected.tobytes():
        return "mismatch"
    return "slow_ok"


def _kill_request(
    host: str, port: int, name: str, capacity: int, timeout_s: float
) -> str:
    """A kill -9'd client: request, read a little, then RST the
    connection mid-response (``SO_LINGER`` zero makes close() send a
    reset, the closest a live process gets to dying abruptly)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
        sock.sendall(protocol.encode_decode_request(name, capacity))
        with contextlib.suppress(TimeoutError, OSError):
            sock.settimeout(min(timeout_s, 1.0))
            sock.recv(256)
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
    except OSError:
        pass
    return "killed"


# ---------------------------------------------------------------------------
# The open loop.
# ---------------------------------------------------------------------------


def run_load(
    host: str,
    port: int,
    assets: dict[str, np.ndarray | None],
    *,
    rate_hz: float = 100.0,
    duration_s: float = 2.0,
    capacities: tuple[int, ...] = (1, 4, 16),
    zipf_s: float = 1.1,
    personas: dict[str, float] | None = None,
    request_timeout_s: float = 30.0,
    seed: int = 0,
    slow_chunk_bytes: int = 512,
    slow_sleep_s: float = 0.02,
) -> dict:
    """One open-loop run against a listening server; returns stats.

    :param assets: ``name -> expected symbols`` (``None`` skips the
        bit-identity check for that asset, e.g. against a remote
        server whose contents this process doesn't know).
    :returns: dict with offered load, outcome counts, ``latency_ms``
        percentiles over successful *normal* requests (measured from
        each request's scheduled arrival — coordinated-omission-free),
        and the achieved goodput.
    """
    if not assets:
        raise ValueError("run_load needs at least one asset")
    personas = dict(personas or DEFAULT_PERSONAS)
    for name_, weight in personas.items():
        if name_ not in ("normal", "slow", "kill"):
            raise ValueError(f"unknown persona {name_!r}")
        if weight < 0:
            raise ValueError(f"persona weight {name_}={weight} < 0")
    rng = Random(seed)
    names = sorted(assets)
    weights = zipf_weights(len(names), zipf_s)

    # The whole arrival schedule is drawn up front (open loop).
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_hz)
        if t >= duration_s:
            break
        arrivals.append(t)
    plan = [
        (
            sched,
            rng.choices(names, weights)[0],
            rng.choice(capacities),
            rng.choices(
                list(personas), list(personas.values())
            )[0],
        )
        for sched in arrivals
    ]

    outcomes: list[str] = []
    # Streaming histogram, not a list: an over-saturation soak records
    # millions of samples in O(buckets) memory, with identical
    # percentile fields (±half a bucket — see repro/trace/hist.py).
    latencies = LatencyHistogram()
    record_lock = threading.Lock()

    def worker(
        idx: int, sched: float, name: str, cap: int, persona: str
    ) -> None:
        sched_abs = start + sched
        if persona == "normal":
            outcome = _normal_request(
                host,
                port,
                name,
                cap,
                assets[name],
                request_timeout_s,
                seed=seed * 100_003 + idx,
            )
        elif persona == "slow":
            outcome = _slow_request(
                host,
                port,
                name,
                cap,
                assets[name],
                request_timeout_s,
                slow_chunk_bytes,
                slow_sleep_s,
            )
        else:
            outcome = _kill_request(host, port, name, cap, request_timeout_s)
        latency = time.monotonic() - sched_abs
        with record_lock:
            outcomes.append(outcome)
        if outcome == "ok":
            latencies.record(latency)

    threads: list[threading.Thread] = []
    start = time.monotonic()
    for idx, (sched, name, cap, persona) in enumerate(plan):
        delay = start + sched - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(
            target=worker,
            args=(idx, sched, name, cap, persona),
            name=f"loadgen-{idx}",
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    join_deadline = time.monotonic() + request_timeout_s + 30.0
    for thread in threads:
        thread.join(max(0.0, join_deadline - time.monotonic()))
    wall_s = time.monotonic() - start

    counts = Counter(outcomes)
    unfinished = len(plan) - len(outcomes)
    if unfinished:
        counts["unfinished"] = unfinished

    def pct(q: float) -> float | None:
        seconds = latencies.percentile(q)
        return None if seconds is None else round(seconds * 1000.0, 3)

    mean_s = latencies.mean
    ok = counts.get("ok", 0) + counts.get("slow_ok", 0)
    return {
        "offered": {
            "rate_hz": rate_hz,
            "duration_s": duration_s,
            "requests": len(plan),
            "capacities": list(capacities),
            "zipf_s": zipf_s,
            "personas": personas,
            "seed": seed,
        },
        "outcomes": dict(sorted(counts.items())),
        "ok": ok,
        "mismatches": counts.get("mismatch", 0),
        "protocol_errors": counts.get("protocol_error", 0),
        "latency_ms": {
            "p50": pct(50),
            "p90": pct(90),
            "p99": pct(99),
            "p999": pct(99.9),
            "mean": (
                round(mean_s * 1000.0, 3) if mean_s is not None else None
            ),
            "max": (
                round(latencies.max * 1000.0, 3)
                if latencies.count
                else None
            ),
            "samples": latencies.count,
        },
        "achieved_rps": round(ok / wall_s, 2) if wall_s > 0 else 0.0,
        "wall_s": round(wall_s, 3),
    }


# ---------------------------------------------------------------------------
# Self-contained harness (CLI + benchmarks/bench_latency.py).
# ---------------------------------------------------------------------------


def stage_breakdown(
    service_metrics: dict, network_metrics: dict | None = None
) -> dict:
    """Per-stage latency attribution from metrics snapshots.

    Pulls the ``stage_latency_ms`` histograms out of a service (and
    optionally network) snapshot and adds a consistency check: the sum
    of the component-stage means must approximate the end-to-end mean
    (service: ``shrink + admission + batch_window + kernel ≈ request``;
    network: ``read + handle + write ≈ e2e``).  The residual is
    result-delivery/scheduling slack — small positive values are
    normal, large ones mean a stage is missing from the decomposition.
    """

    def mean_ms(section: dict, stage: str) -> float:
        value = section.get(stage, {}).get("mean_ms")
        return value if value is not None else 0.0

    svc = service_metrics.get("stage_latency_ms", {})
    out: dict = {"service": svc}
    svc_sum = sum(
        mean_ms(svc, s)
        for s in ("shrink", "admission", "batch_window", "kernel")
    )
    consistency = {
        "service_stage_mean_sum_ms": round(svc_sum, 3),
        "service_e2e_mean_ms": svc.get("request", {}).get("mean_ms"),
    }
    if network_metrics is not None:
        net = network_metrics.get("stage_latency_ms", {})
        out["network"] = net
        net_sum = sum(mean_ms(net, s) for s in ("read", "handle", "write"))
        consistency["net_stage_mean_sum_ms"] = round(net_sum, 3)
        consistency["net_e2e_mean_ms"] = net.get("e2e", {}).get("mean_ms")
    out["consistency"] = consistency
    return out


def run_load_bench(
    symbols: int = 50_000,
    num_assets: int = 4,
    num_splits: int = 64,
    rate_hz: float = 100.0,
    duration_s: float = 2.0,
    capacities: tuple[int, ...] = (1, 4, 16),
    personas: dict[str, float] | None = None,
    kernel: str = ServiceConfig.decode_kernel,
    max_connections: int = 64,
    faults: str | None = None,
    seed: int = 11,
    request_timeout_s: float = 30.0,
    trace_path: str | None = None,
) -> dict:
    """Stand up a service + network server, drive an open-loop run
    clean and (optionally) under a chaos spec, and report both.

    Every verified response in both runs must be bit-identical to the
    stored symbols; a single mismatch raises ``AssertionError`` — a
    latency number for a server that corrupts data is worthless.

    :param trace_path: when set, the whole bench runs with
        :mod:`repro.trace` enabled and the span ring is written there
        as Chrome trace-event JSON (Perfetto-loadable, schema-checked
        before the function returns); the result gains a ``"trace"``
        section.
    """
    from repro.data import text_surrogate
    from repro.serve.net import NetConfig, NetServer

    chaos = bool(faults and faults.strip())
    if chaos:
        fault_injection.parse_spec(faults)  # fail fast on a bad spec

    config = ServiceConfig(decode_kernel=kernel)
    assets: dict[str, np.ndarray] = {}
    fault_report: list[dict] = []
    if trace_path is not None:
        trace.enable()
    with RecoilService(config=config) as service:
        for i in range(num_assets):
            name = f"asset{i}"
            data = text_surrogate(
                symbols, target_entropy=5.29, seed=seed + i
            )
            service.put_asset(name, data, num_splits=num_splits)
            assets[name] = data
        net_config = NetConfig(port=0, max_connections=max_connections)
        with NetServer(service, net_config) as server:
            host, port = server.address
            clean = run_load(
                host,
                port,
                assets,
                rate_hz=rate_hz,
                duration_s=duration_s,
                capacities=capacities,
                personas=personas,
                request_timeout_s=request_timeout_s,
                seed=seed,
            )
            faulted = None
            if chaos:
                with fault_injection.inject_spec(faults):
                    faulted = run_load(
                        host,
                        port,
                        assets,
                        rate_hz=rate_hz,
                        duration_s=duration_s,
                        capacities=capacities,
                        personas=personas,
                        request_timeout_s=request_timeout_s,
                        seed=seed + 1,
                    )
                    fault_report = fault_injection.snapshot()
        # After the with block: the server has drained, so no
        # connection is still closing when the counters are read.
        network = server.metrics.snapshot()
        service_metrics = service.metrics_snapshot()

    trace_report = None
    if trace_path is not None:
        spans = trace.drain()
        trace.disable()
        doc = trace.write_chrome_trace(trace_path, spans)
        trace_report = {
            "path": trace_path,
            "spans": len(spans),
            "dropped": trace.dropped(),
            "validation": trace.validate_chrome_trace(doc),
        }

    for label, run in (("clean", clean), ("faulted", faulted)):
        if run and run["mismatches"]:
            raise AssertionError(
                f"{run['mismatches']} corrupt responses in the "
                f"{label} run — bit-identity is the acceptance bar"
            )
    return {
        "workload": {
            "dataset": "enwik8-surrogate",
            "symbols": symbols,
            "num_assets": num_assets,
            "num_splits": num_splits,
            "rate_hz": rate_hz,
            "duration_s": duration_s,
            "capacities": list(capacities),
            "personas": dict(personas or DEFAULT_PERSONAS),
            "kernel": kernel,
            "max_connections": max_connections,
            "seed": seed,
        },
        "clean": clean,
        "faulted": faulted,
        "faults": (
            {"spec": faults, "rules": fault_report} if chaos else None
        ),
        "network_metrics": network,
        "service_metrics": service_metrics,
        "stage_breakdown": stage_breakdown(service_metrics, network),
        "trace": trace_report,
    }


def render_load_table(result: dict) -> str:
    """Human-readable summary of a :func:`run_load_bench` result."""
    lines = []
    for label in ("clean", "faulted"):
        run = result.get(label)
        if not run:
            continue
        lm = run["latency_ms"]
        lines.append(
            f"{label:>8}: {run['offered']['requests']} requests at "
            f"{run['offered']['rate_hz']:.0f}/s, {run['ok']} ok "
            f"({run['achieved_rps']:.1f} rps goodput)"
        )
        if lm["samples"]:
            lines.append(
                f"          p50 {lm['p50']:.1f} ms, p99 {lm['p99']:.1f} ms, "
                f"p999 {lm['p999']:.1f} ms, max {lm['max']:.1f} ms "
                f"({lm['samples']} samples)"
            )
        hostile = {
            k: v
            for k, v in run["outcomes"].items()
            if k not in ("ok", "slow_ok")
        }
        if hostile:
            lines.append(f"          other outcomes: {hostile}")
    net = result["network_metrics"]
    lines.append(
        f"network: {net['connections']['opened']} conns "
        f"(peak {net['connections']['peak_active']} active, "
        f"{net['connections']['rejected']} shed), "
        f"{net['protocol_errors']} protocol errors, "
        f"{net['deadline_kills']['total']} deadline kills, "
        f"{net['retry_afters_sent']} retry-afters, drain "
        f"{net['drain']['clean']} clean / {net['drain']['forced']} forced"
    )
    stages = result.get("stage_breakdown")
    if stages:
        parts = []
        for section in ("service", "network"):
            for stage, snap in stages.get(section, {}).items():
                if snap.get("count"):
                    parts.append(f"{stage} {snap['p99_ms']:.1f}")
        if parts:
            lines.append(f"stage p99 ms: {', '.join(parts)}")
    tr = result.get("trace")
    if tr:
        lines.append(
            f"trace: {tr['spans']} spans -> {tr['path']} "
            f"({tr['dropped']} dropped)"
        )
    chaos = result.get("faults")
    if chaos:
        fired = sum(r["fires"] for r in chaos["rules"])
        lines.append(f"chaos: spec {chaos['spec']!r} fired {fired} faults")
    return "\n".join(lines)
