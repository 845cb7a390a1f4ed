"""``recoil`` — file-level command line interface.

Subcommands mirror the content-delivery workflow:

- ``recoil compress IN OUT --splits 2176 --quant 11``
- ``recoil shrink IN OUT --threads 16``  (per-request serving step)
- ``recoil decompress IN OUT [--max-parallelism 8]``
- ``recoil info IN [--json]``  (container inspection)
- ``recoil serve-bench``  (batched content-delivery throughput)
- ``recoil serve --port 9090``  (network serving daemon; Ctrl-C drains)
- ``recoil load-bench``  (open-loop tail-latency harness over TCP)
- ``recoil trace``  (fetch or validate a Chrome trace of a live server)

Only static-model containers are supported from the CLI (adaptive
model banks are API-level constructs carried by a host format).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro._version import __version__
from repro.core import (
    parse_container,
    recoil_compress,
    recoil_decompress,
    recoil_shrink,
)
from repro.errors import ReproError


def _cmd_compress(args) -> int:
    data = np.fromfile(args.input, dtype=np.uint8)
    if data.size == 0:
        print("error: input is empty", file=sys.stderr)
        return 2
    blob = recoil_compress(
        data, num_splits=args.splits, quant_bits=args.quant
    )
    with open(args.output, "wb") as fh:
        fh.write(blob)
    ratio = len(blob) / len(data)
    print(
        f"{args.input}: {len(data):,} -> {len(blob):,} bytes "
        f"({ratio:.1%}), {args.splits} splits, n={args.quant}"
    )
    return 0


def _cmd_decompress(args) -> int:
    blob = open(args.input, "rb").read()
    out = recoil_decompress(blob, max_parallelism=args.max_parallelism)
    out.tofile(args.output)
    print(f"{args.input}: {len(blob):,} -> {out.nbytes:,} bytes")
    return 0


def _cmd_shrink(args) -> int:
    blob = open(args.input, "rb").read()
    small = recoil_shrink(blob, args.threads)
    with open(args.output, "wb") as fh:
        fh.write(small)
    print(
        f"{args.input}: {len(blob):,} -> {len(small):,} bytes "
        f"(saved {len(blob) - len(small):,}) for {args.threads} threads"
    )
    return 0


def _cmd_info(args) -> int:
    blob = open(args.input, "rb").read()
    parsed = parse_container(blob, require_model=False)
    md = parsed.metadata
    # The sections as written: header, metadata and payload add up to
    # the container.
    metadata_bytes = parsed.payload_offset - parsed.metadata_offset
    if args.json:
        stats = {
            "container_bytes": len(blob),
            "symbols": parsed.num_symbols,
            "payload_bytes": 2 * parsed.num_words,
            "payload_words": parsed.num_words,
            "lanes": parsed.lanes,
            "quant_bits": parsed.quant_bits,
            "decoder_threads": md.num_threads,
            "splits": md.num_threads - 1,
            "metadata_bytes": metadata_bytes,
            "header_bytes": parsed.metadata_offset,
            "sync_overhead_symbols": md.sync_overhead_symbols(),
        }
        print(json.dumps(stats, indent=2))
        return 0
    print(f"container:        {len(blob):,} bytes")
    print(f"symbols:          {parsed.num_symbols:,}")
    print(f"payload:          {2 * parsed.num_words:,} bytes "
          f"({parsed.num_words:,} words)")
    print(f"lanes:            {parsed.lanes}")
    print(f"quantization:     n={parsed.quant_bits}")
    print(f"decoder threads:  {md.num_threads}")
    print(f"metadata:         {metadata_bytes:,} bytes")
    if md.num_threads > 1:
        sync = md.sync_overhead_symbols()
        print(
            f"sync sections:    {sync:,} symbols "
            f"({100 * sync / max(parsed.num_symbols, 1):.3f}% decode "
            "overhead)"
        )
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.serve.bench import render_table, run_serve_bench

    result = run_serve_bench(
        symbols=args.symbols,
        clients=tuple(args.clients),
        repeats=args.repeats,
        faults=args.faults,
    )
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(render_table(result))
    return 0


def _cmd_serve(args) -> int:
    """Network serving daemon: stand up a service, listen, drain on
    SIGINT/SIGTERM.  A second signal skips the drain grace and tears
    the service down immediately (``RecoilService.close`` is
    idempotent and re-entrant, so the race with the draining main
    thread is safe)."""
    import contextlib
    import signal
    import threading

    from repro import faults, trace
    from repro.data import text_surrogate
    from repro.serve.net import NetConfig, NetServer
    from repro.serve.service import RecoilService, ServiceConfig

    if args.trace:
        trace.enable()
    config = ServiceConfig(
        store_dir=args.store_dir,
        resident_bytes=args.resident_bytes,
    )
    net_config = NetConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        drain_timeout_s=args.drain_timeout,
    )
    stack = contextlib.ExitStack()
    if args.faults:
        stack.enter_context(faults.inject_spec(args.faults))
    with stack, RecoilService(config=config) as service:
        if service.store.recovery is not None:
            rec = service.store.recovery
            print(
                f"recoil serve: recovered {len(rec.recovered)} assets "
                f"from {args.store_dir} "
                f"({len(rec.quarantined)} quarantined, "
                f"{len(rec.missing)} missing)",
                flush=True,
            )
        elif args.store_dir and service.store.memory_only:
            print(
                "recoil serve: WARNING store unusable, running "
                f"memory-only ({service.store.degradation_reason})",
                file=sys.stderr,
                flush=True,
            )
        for path_spec in args.load or []:
            name, _, path = path_spec.partition("=")
            if not name or not path:
                print(
                    f"error: --load wants NAME=PATH, got {path_spec!r}",
                    file=sys.stderr,
                )
                return 2
            service.put_container(name, open(path, "rb").read())
        for i in range(args.demo_assets):
            data = text_surrogate(
                args.symbols, target_entropy=5.29, seed=11 + i
            )
            service.put_asset(f"asset{i}", data, num_splits=args.splits)

        stop = threading.Event()

        def on_signal(signum, frame):
            if stop.is_set():
                # Second signal: the user is done waiting.  close() is
                # re-entrant, so racing the draining main thread is ok.
                service.close()
            stop.set()

        signal.signal(signal.SIGINT, on_signal)
        signal.signal(signal.SIGTERM, on_signal)

        with NetServer(service, net_config) as server:
            host, port = server.address
            print(
                f"recoil serve: listening on {host}:{port} "
                f"({args.demo_assets} demo assets, "
                f"{len(args.load or [])} loaded containers, "
                f"cap {args.max_connections} connections)",
                flush=True,
            )
            stop.wait()
            print("recoil serve: draining...", flush=True)
            drain = server.shutdown()
        snap = server.metrics.snapshot()
        print(
            f"recoil serve: drained {drain['clean']} clean / "
            f"{drain['forced']} forced; served "
            f"{snap['requests']['ok']} requests over "
            f"{snap['connections']['opened']} connections "
            f"({snap['protocol_errors']} protocol errors, "
            f"{snap['deadline_kills']['total']} deadline kills)",
            flush=True,
        )
    return 0


def _cmd_store(args) -> int:
    """Offline inspection of a durable asset store.  Opening the store
    runs the same recovery pass the server runs at cold start, so a
    plain ``ls`` already quarantines torn/corrupt records."""
    import json

    from repro.serve.disk import DiskStore

    store = DiskStore(args.store_dir)
    rec = store.last_recovery
    if rec is not None and (rec.quarantined or rec.missing):
        print(
            f"recovery: {len(rec.quarantined)} quarantined, "
            f"{len(rec.missing)} missing",
            file=sys.stderr,
        )

    if args.action == "ls":
        entries = store.entries()
        if args.json:
            print(json.dumps(
                {"assets": entries, "recovery": rec.to_dict() if rec else None},
                indent=2, sort_keys=True,
            ))
        else:
            for name, entry in entries.items():
                print(f"{name}\t{entry['bytes']} B\tcrc32={entry['crc32']:08x}")
            print(f"{len(entries)} assets in {args.store_dir}")
        return 0

    if args.action == "scrub":
        result = store.scrub()
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(
                f"scrub: {result['verified']} verified, "
                f"{len(result['quarantined'])} quarantined"
            )
            for item in result["quarantined"]:
                print(f"  quarantined {item['file']}: {item['reason']}")
        return 1 if result["quarantined"] else 0

    # stat
    if not args.name:
        print("error: store stat wants an asset NAME", file=sys.stderr)
        return 2
    info = store.stat(args.name)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        for key in sorted(info):
            print(f"{key}: {info[key]}")
    return 0 if info.get("verified") else 1


def _cmd_load_bench(args) -> int:
    from repro.serve.loadgen import render_load_table, run_load_bench

    result = run_load_bench(
        symbols=args.symbols,
        num_assets=args.assets,
        rate_hz=args.rate,
        duration_s=args.duration,
        max_connections=args.max_connections,
        faults=args.faults,
        seed=args.seed,
        trace_path=args.trace,
    )
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(render_load_table(result))
    return 0


def _cmd_trace(args) -> int:
    """Fetch a live server's span ring as a Chrome trace (or validate
    a trace file already on disk).

    Fetch mode talks to a running ``recoil serve`` over TCP and writes
    the Perfetto-loadable document to ``--out``; ``--validate FILE``
    instead schema-checks an existing trace (the CI artifact gate)."""
    from repro.trace import validate_chrome_trace, validate_chrome_trace_file

    if args.validate is not None:
        stats = validate_chrome_trace_file(args.validate)
        print(
            f"{args.validate}: OK — {stats['events']} events, "
            f"{stats['spans']} spans, {len(stats['pids'])} pids, "
            f"{stats['requests']} requests"
        )
        return 0
    from repro.serve.client import RecoilClient

    with RecoilClient(args.host, args.port) as client:
        doc = client.trace(clear=args.clear)
    stats = validate_chrome_trace(doc)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(
        f"{args.out}: {stats['events']} events, {stats['spans']} spans, "
        f"{len(stats['pids'])} pids, {stats['requests']} requests — "
        "load in https://ui.perfetto.dev"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoil",
        description="Recoil parallel-rANS file compressor (ICPP 2023 "
        "reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"recoil {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a file")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--splits", type=int, default=256,
                   help="max parallel decode threads to support")
    c.add_argument("--quant", type=int, default=11,
                   help="probability quantization level n (<=16)")
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser("decompress", help="decompress a container")
    d.add_argument("input")
    d.add_argument("output")
    d.add_argument("--max-parallelism", type=int, default=None,
                   help="combine splits client-side before decoding")
    d.set_defaults(func=_cmd_decompress)

    s = sub.add_parser("shrink", help="combine splits without re-encoding")
    s.add_argument("input")
    s.add_argument("output")
    s.add_argument("--threads", type=int, required=True,
                   help="target decoder parallelism")
    s.set_defaults(func=_cmd_shrink)

    i = sub.add_parser("info", help="inspect a container")
    i.add_argument("input")
    i.add_argument("--json", action="store_true",
                   help="emit machine-readable container stats")
    i.set_defaults(func=_cmd_info)

    b = sub.add_parser(
        "serve-bench",
        help="benchmark the batched content-delivery service",
    )
    b.add_argument("--symbols", type=int, default=200_000,
                   help="asset size in symbols")
    b.add_argument("--clients", type=int, nargs="+", default=[1, 8, 64],
                   help="concurrent-client counts to sweep")
    b.add_argument("--repeats", type=int, default=5,
                   help="alternating timing rounds per concurrency "
                   "level (at least 2)")
    b.add_argument("--faults", default=None, metavar="SPEC",
                   help="chaos spec armed during the client sweep, e.g. "
                   "'kernel.exec:nth=3,batch.dispatch:p=0.05:seed=7' — "
                   "measures the service under injected failures "
                   "(see repro.faults)")
    b.add_argument("--json", action="store_true",
                   help="emit the full result as JSON")
    b.set_defaults(func=_cmd_serve_bench)

    v = sub.add_parser(
        "serve",
        help="network serving daemon (drains gracefully on SIGINT/SIGTERM)",
    )
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=9090,
                   help="TCP port (0 = OS-assigned; printed at startup)")
    v.add_argument("--max-connections", type=int, default=64,
                   help="concurrent-connection cap; excess is shed with "
                   "RETRY_AFTER")
    v.add_argument("--drain-timeout", type=float, default=5.0,
                   help="grace (s) for in-flight requests at shutdown")
    v.add_argument("--demo-assets", type=int, default=2,
                   help="surrogate assets encoded at startup (asset0..N-1)")
    v.add_argument("--symbols", type=int, default=50_000,
                   help="demo asset size in symbols")
    v.add_argument("--splits", type=int, default=64,
                   help="encoded splits per demo asset")
    v.add_argument("--load", action="append", metavar="NAME=PATH",
                   help="serve an existing container file (repeatable)")
    v.add_argument("--store-dir", default=None, metavar="DIR",
                   help="durable asset store directory: PUT containers "
                   "persist crash-safely and survive restarts "
                   "(recovery + quarantine run at startup)")
    v.add_argument("--resident-bytes", type=int, default=None,
                   help="byte budget for the resident (in-memory) tier; "
                   "colder assets are evicted and re-hydrated from disk "
                   "on demand (needs --store-dir)")
    v.add_argument("--faults", default=None, metavar="SPEC",
                   help="arm fault injection for the whole run, e.g. "
                   "'disk.write:p=0.1:seed=7,disk.fsync:p=0.05' "
                   "(see repro.faults)")
    v.add_argument("--trace", action="store_true",
                   help="record request spans in the in-process ring; "
                   "fetch them live with 'recoil trace'")
    v.set_defaults(func=_cmd_serve)

    st = sub.add_parser(
        "store",
        help="inspect or scrub a durable asset store directory",
    )
    st.add_argument("action", choices=("ls", "scrub", "stat"),
                    help="ls: list recovered assets; scrub: re-verify "
                    "every record (exit 1 if any quarantined); stat: "
                    "verify one asset (exit 1 if bad)")
    st.add_argument("name", nargs="?", default=None,
                    help="asset name (stat only)")
    st.add_argument("--store-dir", required=True, metavar="DIR",
                    help="store directory (as given to serve --store-dir)")
    st.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")
    st.set_defaults(func=_cmd_store)

    lb = sub.add_parser(
        "load-bench",
        help="open-loop tail-latency harness against a local server",
    )
    lb.add_argument("--symbols", type=int, default=50_000,
                    help="asset size in symbols")
    lb.add_argument("--assets", type=int, default=4,
                    help="number of assets (Zipf-popular)")
    lb.add_argument("--rate", type=float, default=100.0,
                    help="offered request rate (Poisson arrivals, Hz)")
    lb.add_argument("--duration", type=float, default=2.0,
                    help="open-loop run length in seconds")
    lb.add_argument("--max-connections", type=int, default=64,
                    help="server connection cap")
    lb.add_argument("--faults", default=None, metavar="SPEC",
                    help="chaos spec armed for a second, faulted run "
                    "(e.g. 'net.read:p=0.05,net.stall:p=0.1') — the "
                    "report then shows clean and faulted side by side")
    lb.add_argument("--seed", type=int, default=11,
                    help="workload seed (arrivals, popularity, personas)")
    lb.add_argument("--trace", default=None, metavar="FILE",
                    help="enable request tracing for the run and write "
                    "a Perfetto-loadable Chrome trace to FILE")
    lb.add_argument("--json", action="store_true",
                    help="emit the full result as JSON")
    lb.set_defaults(func=_cmd_load_bench)

    t = sub.add_parser(
        "trace",
        help="fetch a live server's request trace (or validate one)",
    )
    t.add_argument("--host", default="127.0.0.1")
    t.add_argument("--port", type=int, default=9090)
    t.add_argument("--out", default="trace.json", metavar="FILE",
                   help="where to write the Chrome trace-event JSON")
    t.add_argument("--clear", action="store_true",
                   help="drain the server's span ring after fetching")
    t.add_argument("--validate", default=None, metavar="FILE",
                   help="schema-check an existing trace file instead of "
                   "fetching (exit 1 on an invalid document)")
    t.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, ValueError) as exc:
        # ValueError: a malformed --faults chaos spec.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
