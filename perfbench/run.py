"""The repository benchmark: closed-loop decode, fetch and ingest over
the wire against ``recoil serve``.

Usage::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # the three in turn

One load-generator process (this one) drives one server subprocess
over one loopback connection, in a closed loop: the next request is
sent when the previous one has been received and checked.  The server
runs with ``--port 0 --demo-assets 0`` and a store directory, and with
no backend or worker flag, so the default configuration is measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced phase and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the ``report`` line before
it carries provenance, sample counts and the per-class latency table.
The exit code is 0 only when every timed response verified.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space of a run (stores, server logs, TMPDIR), inside the
#: checkout and removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("decode", "fetch", "ingest")
#: server starts per measured run; ``setup_s`` is their median.
SETUP_STARTS = 3
#: the traced phase fetches the server's span ring at least this often
#: (in requests), far below the ring's 65536-span capacity.
TRACE_DRAIN_REQUESTS = 256


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo
    )


class Phase:
    """Outcome of one timed phase: per-request windows and verdicts."""

    def __init__(self) -> None:
        self.windows: list[tuple[float, float]] = []
        self.classes: list[str] = []
        self.levels: list[str] = []
        self.ok: list[bool] = []
        self.elapsed_s = 0.0
        self.bytes_received = 0
        self.metrics_before: dict = {}
        self.metrics_after: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def verified(self) -> int:
        return sum(self.ok)

    def latencies_ms(self, pred=lambda i: True) -> list[float]:
        return sorted(
            1e3 * (t1 - t0)
            for i, (t0, t1) in enumerate(self.windows)
            if self.ok[i] and pred(i)
        )

    def class_table(self) -> dict:
        """Latency per class (capacity x input), and where p50 and p90
        sit among the workload's cost levels.  A percentile sits inside
        a level when 10-90% of that level's requests are at or below
        it; ``inside`` is empty when it falls on a boundary."""
        rows = {}
        for cls in sorted(set(self.classes)):
            lat = self.latencies_ms(lambda i, cls=cls: self.classes[i] == cls)
            rows[cls] = {
                "n": len(lat),
                "p50_ms": _percentile(lat, 50),
                "p90_ms": _percentile(lat, 90),
            }
        where = {}
        for pct in (50, 90):
            value = _percentile(self.latencies_ms(), pct)
            share = {}
            for level in sorted(set(self.levels)):
                lat = self.latencies_ms(
                    lambda i, level=level: self.levels[i] == level
                )
                below = sum(v <= value for v in lat)
                share[level] = 100.0 * below / max(len(lat), 1)
            where[f"p{pct}"] = {
                "value_ms": value,
                "inside": [k for k, v in share.items() if 10.0 <= v <= 90.0],
                "share_at_or_below_pct": share,
            }
        return {"classes": rows, "percentiles": where}


class Bench:
    """One invocation: a workload, its work directory and its servers."""

    def __init__(self, args, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        self._stores = 0
        self.catalogue_store = None

    def prepare(self) -> None:
        """Inputs, expected outputs and the catalogue store directory:
        all before, and outside, any server's set-up time."""
        from workloads import WORKLOADS

        os.makedirs(os.path.join(self.workdir, "tmp"), exist_ok=True)
        self.wl = WORKLOADS[self.workload](
            self.args.seed, plant_mismatch=self.args.plant_mismatch
        )
        if not self.wl.fresh_store:
            self.catalogue_store = self._new_store_dir()
            self.wl.prepare_store(self.catalogue_store)

    def _new_store_dir(self) -> str:
        self._stores += 1
        return os.path.join(self.workdir, f"store{self._stores}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass

    # -- servers -----------------------------------------------------------

    def start(self, traced: bool = False):
        """Start a server and run the warm-up pass on a fresh
        connection.  Returns ``(server, client, setup_s)``; warm-up
        responses warm caches and are not counted."""
        from server import Server

        from repro.serve.client import RecoilClient

        store = self.catalogue_store or self._new_store_dir()
        server = Server(self.workdir, ["--store-dir", store], traced=traced)
        client = RecoilClient(*server.address, timeout_s=60.0)
        try:
            for req in self.wl.warmup_requests():
                self.wl.execute(client, req)
        except BaseException:
            client.close()
            server.stop()
            raise
        return server, client, time.perf_counter() - server.setup_t0

    @staticmethod
    def stop(server, client) -> None:
        client.close()
        server.stop()

    def timed(self, client, on_pass=None) -> Phase:
        """The closed loop: whole passes of the request list, in order,
        until ``--seconds`` have elapsed.  ``on_pass(requests_done)``
        runs between passes."""
        wl, phase = self.wl, Phase()
        phase.metrics_before = client.metrics()
        received0 = wl.bytes_received
        requests = wl.timed_requests()
        begin = time.perf_counter()
        while True:
            for _ in range(wl.pass_size):
                req = next(requests)
                t0 = time.perf_counter()
                ok = wl.execute(client, req)
                t1 = time.perf_counter()
                phase.windows.append((t0, t1))
                phase.classes.append(req.klass)
                phase.levels.append(wl.level(req))
                phase.ok.append(ok)
            if t1 - begin >= self.args.seconds:
                break
            if on_pass is not None:
                on_pass(len(phase.ok))
        phase.elapsed_s = time.perf_counter() - begin
        phase.bytes_received = wl.bytes_received - received0
        phase.metrics_after = client.metrics()
        return phase

    # -- the two kinds of run --------------------------------------------

    def measured(self):
        """``--trace 0``: three cold starts, then the timed phase on the
        last server; returns the end-to-end metrics."""
        setups = []
        server = client = None
        try:
            for k in range(SETUP_STARTS):
                server, client, setup_s = self.start()
                setups.append(setup_s)
                if k < SETUP_STARTS - 1:
                    self.stop(server, client)
            phase = self.timed(client)
            rss_mb = server.peak_rss_mb()
        finally:
            if server is not None:
                self.stop(server, client)
        failed_late = self.wl.verify_deferred()
        lat = phase.latencies_ms()
        verified = phase.verified - failed_late
        values = {
            "setup_s": statistics.median(setups),
            "req_per_s": verified / phase.elapsed_s,
            "p50_ms": _percentile(lat, 50),
            "p90_ms": _percentile(lat, 90),
            "ok_pct": 100.0 * verified / phase.attempted,
            **self.container_figures(),
            "server_rss_mb": rss_mb,
        }
        detail = {
            "setup_s_starts": setups,
            "samples": {"p50_ms": len(lat), "p90_ms": len(lat)},
            "timed_s": phase.elapsed_s,
        }
        return values, detail, [phase], failed_late

    def traced(self):
        """``--trace 1``: an untraced phase, then a traced one with
        spans on both sides of the wire; returns per-layer metrics."""
        from layers import client_spans, install_client_spans
        from layers import layer_metrics, server_spans

        from repro import trace

        server, client, _ = self.start()
        try:
            plain = self.timed(client)
        finally:
            self.stop(server, client)

        uninstall = install_client_spans()
        trace.enable(capacity=1 << 21)
        docs = []
        try:
            server, client, _ = self.start(traced=True)
            try:
                setup = server_spans(client.trace(clear=True))
                trace.drain()
                drained = 0

                def drain(done: int) -> None:
                    nonlocal drained
                    if done - drained >= TRACE_DRAIN_REQUESTS:
                        docs.append(client.trace(clear=True))
                        drained = done

                traced_phase = self.timed(client, on_pass=drain)
                docs.append(client.trace(clear=True))
            finally:
                self.stop(server, client)
        finally:
            trace.disable()
            uninstall()
        if trace.dropped():
            raise RuntimeError(f"client span ring dropped {trace.dropped()}")
        client_side = client_spans(trace.drain())
        server_side = [s for doc in docs for s in server_spans(doc)]
        failed_late = self.wl.verify_deferred()

        values = layer_metrics(
            traced_phase.windows, client_side, server_side, setup
        )
        values.update(self.counters(traced_phase))
        plain_p50 = _percentile(plain.latencies_ms(), 50)
        traced_p50 = _percentile(traced_phase.latencies_ms(), 50)
        values["trace.overhead_pct"] = (
            100.0 * (traced_p50 - plain_p50) / plain_p50
        )
        values["trace.requests"] = traced_phase.attempted
        detail = {
            "untraced_p50_ms": plain_p50,
            "traced_p50_ms": traced_p50,
            "samples": {
                "untraced": len(plain.latencies_ms()),
                "traced": len(traced_phase.latencies_ms()),
            },
            "server_spans": len(server_side) + len(setup),
            "client_spans": len(client_side),
        }
        return values, detail, [plain, traced_phase], failed_late

    # -- figures -----------------------------------------------------------

    def container_figures(self) -> dict:
        from workloads import container_figures

        figs = [container_figures(b) for b in self.wl.figures_blobs()]
        symbols = sum(f["symbols"] for f in figs)
        return {
            "bits_per_symbol": 8.0 * sum(f["bytes"] for f in figs) / symbols,
            "overhead_pct": 100.0 * sum(f["metadata_bytes"] for f in figs)
            / sum(f["payload_bytes"] for f in figs),
        }

    def counters(self, phase: Phase) -> dict:
        """Per-layer counts: the server's counters over the phase and
        the containers behind the requests."""
        from workloads import container_figures

        def delta(*path) -> float:
            a, b = phase.metrics_before, phase.metrics_after
            for key in path:
                a, b = a[key], b[key]
            return b - a

        batches = delta("batches", "dispatched")
        decodes = delta("requests", "completed") + delta("requests", "failed")
        hits = delta("shrink", "cache_hits")
        lookups = hits + delta("shrink", "cache_misses")
        figs = [container_figures(b) for b in self.wl.figures_blobs()]
        symbols = sum(f["symbols"] for f in figs)
        return {
            "net.bytes_per_req": phase.bytes_received / phase.attempted,
            "service.reqs_per_batch": decodes / batches if batches else 0.0,
            "store.hit_pct": 100.0 * hits / lookups if lookups else 0.0,
            "core.metadata_bytes": statistics.fmean(
                f["metadata_bytes"] for f in figs
            ),
            "core.sync_pct": 100.0 * sum(f["sync_symbols"] for f in figs)
            / symbols,
            "rans.payload_bits_per_symbol": 8.0
            * sum(f["payload_bytes"] for f in figs) / symbols,
        }

    def provenance(self, phases: list[Phase]) -> dict:
        import numpy as np

        from repro.parallel import compiled

        snap = phases[-1].metrics_after
        resilience = snap.get("resilience", {})
        return {
            "workload": self.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "host_cpus": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "server_backend": resilience.get("backend"),
            "server_kernel": resilience.get("kernel"),
            "compiled_toolchain": compiled.toolchain(),
            "pass_size": self.wl.pass_size,
            "request_list_length": self.wl.list_length,
            "requests": [p.attempted for p in phases],
        }


def _spec() -> dict:
    """``BENCHMARK.json``: the metric names and units to print, and the
    default run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _print_metrics(title: str, values: dict, units: dict, samples: dict):
    print(title)
    for name, unit in units.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<30} {values[name]:>14.6g} {unit}{note}")


def run_workload(args, workload: str, units: dict) -> bool:
    """Run and report one workload; ``True`` when every timed response
    verified."""
    bench = Bench(args, workload)
    try:
        bench.prepare()
        run = bench.traced if args.trace else bench.measured
        values, detail, phases, failed_late = run()
    finally:
        bench.close()

    attempted = sum(p.attempted for p in phases)
    failed = attempted - sum(p.verified for p in phases) + failed_late
    _print_metrics(
        f"perfbench {workload} seed={args.seed} trace={args.trace}",
        values, units, detail.get("samples", {}),
    )
    report = {
        "provenance": bench.provenance(phases),
        "detail": detail,
        "latency_classes": phases[-1].class_table(),
        "values": values,
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }), flush=True)
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 while developing a change, "
                        "2 to confirm a claim")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed phase (whole passes "
                        "of the request list run until it has elapsed; "
                        "default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="self-test: plant one wrong expected output, "
                        "so the run must report it and exit non-zero")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import repro.serve.client  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2

    # The load generator and the server (which inherits this affinity)
    # share one CPU.  On a shared 2-CPU host, a loop that needs both
    # CPUs at once (the fetch stream: the server writes while the
    # client reads) waits on whoever else holds the second one; see
    # METHODS.md for the measurement.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = [run_workload(args, name, units) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
