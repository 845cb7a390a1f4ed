"""Serving benchmark harness: batched vs. unbatched delivery.

Measures end-to-end multi-client decode throughput of the
content-delivery service at several concurrency levels, with and
without cross-request fusion: the baseline is the same service on the
same kernel with ``ServiceConfig(max_batch_requests=1)``, which runs
one request per kernel call in arrival order.  The speedup therefore
measures batching alone, never a kernel difference.

Every response of both services is verified bit-identical to the
``recoil_decompress`` reference before any timing is recorded.  The
two services are timed in alternating rounds
(:func:`repro.stats.timing.alternating_rounds`): each level reports
the median throughput of each with its quartiles, and the speedup is
the ratio of the medians.

Both ``recoil serve-bench`` and ``benchmarks/bench_serve.py`` (which
emits ``BENCH_serve.json``, the number CI gates on) call
:func:`run_serve_bench`.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from repro import faults as fault_injection
from repro.core.api import recoil_decompress
from repro.data import text_surrogate
from repro.errors import ReproError
from repro.serve.service import RecoilService, ServiceConfig
from repro.stats.timing import alternating_rounds

#: client classes cycled across concurrent requests (advertised
#: decoder capacities, as in the paper's content-delivery scenario).
DEFAULT_CAPACITIES = (1, 4, 16)


def run_serve_bench(
    symbols: int = 200_000,
    clients: tuple[int, ...] = (1, 8, 64),
    capacities: tuple[int, ...] = DEFAULT_CAPACITIES,
    num_splits: int = 256,
    repeats: int = 5,
    seed: int = 11,
    faults: str | None = None,
) -> dict:
    """Benchmark batched vs. unbatched serving; returns a JSON-able dict.

    For each concurrency level ``C`` the same ``C`` requests (client
    capacities cycling through ``capacities``) are submitted
    concurrently to two services sharing one asset store and the
    host's kernel (``workload.kernel`` in the result; numpy under
    ``REPRO_COMPILED_TOOLCHAIN=none``):

    - ``unbatched``: ``max_batch_requests=1`` — one request per kernel
      call, in arrival order;
    - ``batched``: the request batcher fuses them into multi-request
      kernel calls.

    ``repeats`` is the number of alternating timing rounds per level
    (at least 2; a smaller value runs 2), after one untimed round.

    ``faults`` optionally arms a chaos spec
    (:func:`repro.faults.parse_spec` format) for the duration of the
    client sweep — the ``recoil serve-bench --faults`` knob.  With
    chaos armed, per-request :class:`~repro.errors.ReproError`
    failures are tolerated and counted (``faults.failed_requests`` in
    the result) instead of aborting the run, and correctness is still
    asserted on every request that completes; the timings then
    describe the service *under fire*, not a clean baseline.
    """
    repeats = max(repeats, 2)
    chaos = bool(faults and faults.strip())
    if chaos:
        fault_injection.parse_spec(faults)  # fail fast on a bad spec
    failed_requests = 0
    fault_report: list[dict] = []
    data = text_surrogate(symbols, target_entropy=5.29, seed=seed)
    out_bytes = data.nbytes

    results: dict[str, dict] = {}
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(RecoilService())
        solo_service = stack.enter_context(
            RecoilService(
                store=service.store,
                config=ServiceConfig(max_batch_requests=1),
            )
        )
        service.put_asset("asset", data, num_splits=num_splits)
        reference = recoil_decompress(service.serve("asset", capacities[0]))
        if not np.array_equal(reference, data):
            raise AssertionError("reference decode mismatch")

        # Correctness first: every response of both services must
        # equal the reference decode.
        probe_caps = [c for c in capacities for _ in range(2)]
        for label, svc in (("batched", service), ("unbatched", solo_service)):
            probes = [svc.submit("asset", c) for c in probe_caps]
            for cap, probe in zip(probe_caps, probes):
                if not np.array_equal(probe.result(300), reference):
                    raise AssertionError(
                        f"{label} decode mismatch at capacity {cap}"
                    )

        chaos_stack = (
            fault_injection.inject_spec(faults)
            if chaos
            else contextlib.nullcontext()
        )
        with chaos_stack:
            for num_clients in clients:
                caps = [
                    capacities[i % len(capacities)]
                    for i in range(num_clients)
                ]

                def drive(svc: RecoilService) -> None:
                    nonlocal failed_requests
                    requests = []
                    for c in caps:
                        try:
                            requests.append(svc.submit("asset", c))
                        except ReproError:
                            if not chaos:
                                raise
                            failed_requests += 1
                    for request in requests:
                        try:
                            out = request.result(600)
                        except ReproError:
                            if not chaos:
                                raise
                            failed_requests += 1
                            continue
                        if chaos and not np.array_equal(out, reference):
                            raise AssertionError(
                                "corrupt response under fault injection"
                            )

                total = num_clients * out_bytes

                def rate(svc: RecoilService):
                    def timer() -> float:
                        t0 = time.perf_counter()
                        drive(svc)
                        return total / (time.perf_counter() - t0)

                    return timer

                rates = alternating_rounds(
                    {
                        "unbatched": rate(solo_service),
                        "batched": rate(service),
                    },
                    repeats,
                )
                row = {}
                for label, (q1, median, q3) in rates.items():
                    row[f"{label}_s"] = round(total / median, 4)
                    row[f"{label}_mb_s"] = round(median / 1e6, 2)
                    row[f"{label}_mb_s_q1_q3"] = [
                        round(q1 / 1e6, 2),
                        round(q3 / 1e6, 2),
                    ]
                row["speedup"] = round(
                    rates["batched"][1] / rates["unbatched"][1], 3
                )
                results[str(num_clients)] = row
            if chaos:
                fault_report = fault_injection.snapshot()

        snapshot = service.metrics_snapshot()
        kernel = service.decode_kernel

    from repro.serve.loadgen import stage_breakdown

    tiered = _tiered_cold_warm(symbols, seed)

    max_clients = str(max(clients))
    chaos_section = (
        {
            "spec": faults,
            "failed_requests": failed_requests,
            "rules": fault_report,
        }
        if chaos
        else None
    )
    return {
        "workload": {
            "dataset": "enwik8-surrogate",
            "symbols": symbols,
            "num_splits": num_splits,
            "client_capacities": list(capacities),
            "repeats": repeats,
            "kernel": kernel,
            "host_cpus": os.cpu_count(),
            "faults": faults,
        },
        "faults": chaos_section,
        "clients": results,
        "speedup_batched_vs_unbatched_max_clients": results[max_clients][
            "speedup"
        ],
        "service_metrics": snapshot,
        "stage_breakdown": stage_breakdown(snapshot),
        "tiered": tiered,
    }


def _tiered_cold_warm(symbols: int, seed: int) -> dict:
    """Cold-start vs warm serving through the durable tiered store.

    Populates a disk store with several assets, then serves the SAME
    Zipf-distributed request sequence twice against a byte-bounded
    resident tier: once starting cold (resident tier empty, every
    first touch hydrates from disk and re-verifies its checksum) and
    once warm (popular assets already resident).  The resident budget
    holds only the three largest assets, so the tail of the Zipf keeps
    churning the LRU in both phases.  Their tier hit rates differ by
    only a few points, so the wall times are reported per phase, next
    to the counters, and never as a ratio (docs/BENCHMARKS.md).
    """
    import shutil
    import tempfile

    from repro.serve.loadgen import stage_breakdown
    from repro.serve.metrics import ServeMetrics

    num_assets = 5
    sym_each = max(8_000, symbols // 10)
    n_requests = 48
    zipf_s = 1.1
    root = tempfile.mkdtemp(prefix="recoil-tiered-")
    try:
        names = [f"zipf{i}" for i in range(num_assets)]
        datasets: dict[str, np.ndarray] = {}
        write_cfg = ServiceConfig(store_dir=root)
        with RecoilService(config=write_cfg) as writer:
            for i, name in enumerate(names):
                datasets[name] = text_surrogate(
                    sym_each, target_entropy=5.29, seed=seed + 100 + i
                )
                writer.put_asset(name, datasets[name], num_splits=64)
            sizes = sorted(
                e["bytes"] for e in writer.store.disk.entries().values()
            )
            budget = sum(sizes[-3:])

        rng = np.random.default_rng(seed + 1000)
        weights = np.array(
            [1.0 / (rank + 1) ** zipf_s for rank in range(num_assets)]
        )
        sequence = list(
            rng.choice(names, size=n_requests, p=weights / weights.sum())
        )

        def phase(service: RecoilService) -> dict:
            service.metrics = ServeMetrics()
            store = service.store
            h0, r0, e0 = (
                store.hydrations, store.resident_hits, store.evictions,
            )
            t0 = time.perf_counter()
            for name in sequence:
                out = service.submit(name, 4).result(300)
                if not np.array_equal(out, datasets[name]):
                    raise AssertionError(
                        f"tiered decode mismatch for {name!r}"
                    )
            wall = time.perf_counter() - t0
            hydrations = store.hydrations - h0
            hits = store.resident_hits - r0
            return {
                "wall_s": round(wall, 4),
                "hydrations": hydrations,
                "resident_hits": hits,
                "evictions": store.evictions - e0,
                "tier_hit_rate": round(
                    hits / max(1, hits + hydrations), 4
                ),
                "stage_breakdown": stage_breakdown(
                    service.metrics_snapshot()
                ),
            }

        serve_cfg = ServiceConfig(store_dir=root, resident_bytes=budget)
        with RecoilService(config=serve_cfg) as service:
            recovered = len(service.store.recovery.recovered)
            cold = phase(service)   # resident tier empty: compulsory
            warm = phase(service)   # popular assets already resident
        return {
            "assets": num_assets,
            "symbols_per_asset": sym_each,
            "requests": n_requests,
            "zipf_s": zipf_s,
            "resident_budget_bytes": budget,
            "recovered_at_cold_start": recovered,
            "cold": cold,
            "warm": warm,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def render_table(result: dict) -> str:
    """Human-readable summary of a :func:`run_serve_bench` result."""

    def mb_s(row: dict, label: str) -> str:
        q1, q3 = row[f"{label}_mb_s_q1_q3"]
        return f"{row[f'{label}_mb_s']:.2f} ({q1:.2f}-{q3:.2f})"

    lines = [
        f"{'clients':>8} {'unbatched MB/s (q1-q3)':>24} "
        f"{'batched MB/s (q1-q3)':>24} {'speedup':>8}"
    ]
    for clients, row in result["clients"].items():
        lines.append(
            f"{clients:>8} {mb_s(row, 'unbatched'):>24} "
            f"{mb_s(row, 'batched'):>24} {row['speedup']:>7.2f}x"
        )
    m = result["service_metrics"]
    lines.append(
        f"batches: {m['batches']['dispatched']}, largest "
        f"{m['batches']['largest_requests']} requests; shrink-cache "
        f"hit rate {m['shrink']['hit_rate']:.0%}"
    )
    res = m.get("resilience")
    if res and (res["poison_batches"] or res["deadline_expired"]):
        lines.append(
            f"resilience: {res['poison_batches']} poison batches "
            f"({res['poison_isolated']} isolated), "
            f"{res['deadline_expired']} deadline-expired"
        )
    stages = result.get("stage_breakdown")
    if stages:
        parts = [
            f"{stage} {snap['p99_ms']:.1f}"
            for stage, snap in stages.get("service", {}).items()
            if snap.get("count")
        ]
        if parts:
            lines.append(f"stage p99 ms: {', '.join(parts)}")
    chaos = result.get("faults")
    if chaos:
        fired = sum(r["fires"] for r in chaos["rules"])
        lines.append(
            f"chaos: spec {chaos['spec']!r} fired {fired} faults, "
            f"{chaos['failed_requests']} requests failed"
        )
    tiered = result.get("tiered")
    if tiered:
        lines.append(
            f"tiered ({tiered['assets']} assets, Zipf "
            f"s={tiered['zipf_s']}, budget "
            f"{tiered['resident_budget_bytes']} B): cold "
            f"{tiered['cold']['wall_s'] * 1000:.0f} ms "
            f"({tiered['cold']['hydrations']} hydrations, hit rate "
            f"{tiered['cold']['tier_hit_rate']:.0%}), warm "
            f"{tiered['warm']['wall_s'] * 1000:.0f} ms (hit rate "
            f"{tiered['warm']['tier_hit_rate']:.0%})"
        )
    return "\n".join(lines)
