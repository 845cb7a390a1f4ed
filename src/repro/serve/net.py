"""Network serving front-end: a socket server over :class:`RecoilService`.

This is the daemon form of the serving subsystem (DESIGN.md §16): a
listening TCP socket speaking the length-prefixed protocol of
:mod:`repro.serve.protocol`, one OS thread per connection, over the
same in-process :class:`~repro.serve.service.RecoilService` the thread
clients use — so repeated requests skip every setup cost (encode,
parse, shrink, table builds) exactly like the Lina daemon exemplar.

**Why threads, not asyncio.**  The builder (and the common CI runner)
has one core.  The service's real work happens inside numpy kernels
that release the GIL, behind a dispatcher that already serializes
kernel execution; connection threads only parse tiny frames and block
on sockets or on the service's own admission/batching waits.  A
thread-per-connection front-end therefore adds no scheduler pressure
at the concurrency the connection cap admits, while an asyncio loop
would wrap a second scheduling abstraction around a service API that
is *blocking by design* (``decompress`` waits on a Future) and buy
nothing on one core.  The cap (``max_connections``) bounds thread
count the same way admission bounds kernel work.

Robustness layer (the point of this module, DESIGN.md §16):

- **Strict frames.**  Every malformed frame — bad magic, unknown
  type, oversized declared length, truncated body — is answered with
  a typed :class:`~repro.errors.ProtocolError` wire response
  (best-effort) and the connection is closed; the server never
  crashes and never hangs on hostile bytes (fuzzed in
  ``tests/test_fuzz.py``).
- **Deadlines.**  A started request frame must complete within
  ``read_timeout_s`` (kills slow-loris drips), an idle connection is
  closed after ``idle_timeout_s`` (kills dead peers), and a response
  write must progress within ``write_timeout_s`` (kills slow readers
  that would otherwise pin a thread and its buffers forever).
- **Overload shedding.**  Connections over ``max_connections`` get a
  ``RETRY_AFTER`` frame and are closed; an
  :class:`~repro.errors.AdmissionError` from the service's
  backpressure maps to the same frame on a live connection.  The
  bundled client honors it with capped exponential backoff + jitter.
- **Graceful drain.**  :meth:`NetServer.shutdown` stops accepting,
  wakes idle connections, lets in-flight requests finish under
  ``drain_timeout_s``, then hard-closes stragglers — every outcome
  counted (``drain.clean`` / ``drain.forced``).
- **Fault points.**  ``net.accept``, ``net.read``, ``net.write`` and
  ``net.stall`` (:mod:`repro.faults`) are instrumented on the real
  surfaces so the PR 6 chaos harness drives the network layer too.

All counters live in :class:`~repro.serve.metrics.NetMetrics`,
attached to the service so ``metrics_snapshot()["network"]`` reports
them alongside the serve/resilience sections.  Each request's
``read``, ``handle``, ``write`` and ``e2e`` stages are recorded once,
through :meth:`NetMetrics.stage <repro.serve.metrics.NetMetrics.stage>`,
which feeds the stage's histogram and, for a traced request, its
``net.*`` span.  A connection is counted closed before its socket
closes, so a peer that sees EOF sees ``connections.active`` without
it.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

from repro import faults, trace
from repro.errors import (
    AdmissionError,
    DeadlineError,
    ProtocolError,
    ReproError,
    ServeError,
)
from repro.serve import protocol
from repro.serve.metrics import NetMetrics
from repro.serve.service import RecoilService


class _Deadline(Exception):
    """Internal: a per-connection read/write deadline fired."""

    def __init__(self, *, write: bool) -> None:
        super().__init__("deadline")
        self.write = write


class _PeerClosed(Exception):
    """Internal: the peer closed the connection.

    ``midframe`` distinguishes a hostile/broken close inside a frame
    from the normal close between requests.
    """

    def __init__(self, *, midframe: bool) -> None:
        super().__init__("peer closed")
        self.midframe = midframe


#: delay suggested in ``RETRY_AFTER`` shed frames, in seconds.
RETRY_AFTER_S = 0.05
#: pending-connection queue of the listening socket.
LISTEN_BACKLOG = 128


@dataclass(frozen=True)
class NetConfig:
    """Tunables of one network front-end (DESIGN.md §16)."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick (read the bound port from ``address``).
    port: int = 0
    #: concurrent-connection cap; everything above is shed with a
    #: ``RETRY_AFTER`` frame (and counted).
    max_connections: int = 64
    #: how long a connection may sit between requests before it is
    #: closed as a dead peer.
    idle_timeout_s: float = 60.0
    #: how long a *started* request frame may take to arrive complete
    #: (slow-loris kill).
    read_timeout_s: float = 10.0
    #: how long one response may take to write (slow-reader kill).
    write_timeout_s: float = 10.0
    #: grace for in-flight requests at shutdown before hard-close.
    drain_timeout_s: float = 5.0
    #: streamed-response chunk size.
    chunk_bytes: int = 64 * 1024
    #: sleep injected when the ``net.stall`` fault point triggers.
    stall_inject_s: float = 0.25
    #: per-connection ``SO_SNDBUF`` override (tests use a tiny buffer
    #: to make slow-reader write kills deterministic).
    send_buffer_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ServeError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        for name in (
            "idle_timeout_s",
            "read_timeout_s",
            "write_timeout_s",
            "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ServeError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.chunk_bytes < 1:
            raise ServeError(
                f"chunk_bytes must be >= 1, got {self.chunk_bytes}"
            )


class _Connection:
    """One accepted socket plus its lifecycle flags."""

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.thread: threading.Thread | None = None
        #: True while a request is executing (drain lets it finish).
        self.busy = False
        #: tracing context of the request in flight (``repro.trace``).
        self.trace_req: int | None = None
        self.trace_root: int | None = None
        #: seconds spent in ``_respond`` for the request in flight —
        #: subtracted from the handle stage so read/handle/write sum
        #: to the connection's end-to-end time.
        self.write_s = 0.0
        #: set by shutdown() when this connection is hard-closed.
        self.forced = False
        self._lock = threading.Lock()
        self._drain_recorded = False

    def wake(self) -> None:
        """Abort a blocked read (drain of an idle connection) without
        killing an in-progress response write."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def force_close(self) -> None:
        self.forced = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def record_drain_once(self, metrics: NetMetrics, *, forced: bool) -> None:
        """Exactly-once drain outcome (the conn thread and shutdown()
        can race to report it)."""
        with self._lock:
            if self._drain_recorded:
                return
            self._drain_recorded = True
        metrics.record_drain(forced=forced)


class NetServer:
    """Threaded socket server exposing a :class:`RecoilService`.

    Usage::

        with RecoilService() as service:
            service.put_asset("a", data)
            with NetServer(service, NetConfig(port=0)) as server:
                host, port = server.address
                ...

    The server does **not** own the service: shutting down the server
    drains connections but leaves the service usable (and a service
    can carry several front-ends in principle).  The CLI tears both
    down in order.
    """

    def __init__(
        self, service: RecoilService, config: NetConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or NetConfig()
        self.metrics = NetMetrics()
        service.attach_network_metrics(self.metrics)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._draining = threading.Event()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "NetServer":
        """Bind, listen, and start the accept loop; returns ``self``."""
        if self._listener is not None:
            raise ServeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.port))
            listener.listen(LISTEN_BACKLOG)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="recoil-net-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._listener is None:
            raise ServeError("server not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def __enter__(self) -> "NetServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, drain_timeout_s: float | None = None) -> dict:
        """Graceful drain: stop accepting, finish in-flight requests,
        hard-close stragglers.  Idempotent.

        1. The listener closes (the accept loop exits; new peers get
           connection-refused).
        2. Idle connections are woken and close cleanly; busy ones
           finish their in-flight request.
        3. Whatever remains after ``drain_timeout_s`` (default: the
           config value) is hard-closed and counted ``drain.forced``.

        :returns: the drain slice of the metrics snapshot.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._draining.set()
            if self._listener is not None:
                # shutdown() before close(): on Linux, close() alone
                # does not wake a thread blocked in accept() — the
                # kernel socket would stay listening until a peer
                # happened to connect.
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._listener.close()
                except OSError:
                    pass
            if self._accept_thread is not None:
                self._accept_thread.join(5.0)
            with self._lock:
                conns = list(self._conns)
            for conn in conns:
                if not conn.busy:
                    conn.wake()
            deadline = time.monotonic() + (
                self.config.drain_timeout_s
                if drain_timeout_s is None
                else drain_timeout_s
            )
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._conns:
                        break
                time.sleep(0.005)
            with self._lock:
                leftovers = list(self._conns)
            for conn in leftovers:
                conn.record_drain_once(self.metrics, forced=True)
                conn.force_close()
            # A connection leaves the set before its thread closes the
            # socket and records its drain outcome: wait for every
            # thread, so the drain counts below are final.
            for conn in conns:
                if conn.thread is not None:
                    conn.thread.join(2.0)
        return self.metrics.snapshot()["drain"]

    close = shutdown

    @property
    def active_connections(self) -> int:
        with self._lock:
            return len(self._conns)

    # -- accept loop ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: drain
            try:
                faults.fire(faults.NET_ACCEPT)
            except Exception:
                self.metrics.record_transport_error()
                self._close_quiet(sock)
                continue
            if self._draining.is_set():
                self._close_quiet(sock)
                continue
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self.config.send_buffer_bytes is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_SNDBUF,
                        self.config.send_buffer_bytes,
                    )
            except OSError:
                self._close_quiet(sock)
                continue
            with self._lock:
                over_cap = len(self._conns) >= self.config.max_connections
                if not over_cap:
                    conn = _Connection(sock, addr)
                    self._conns.add(conn)
            if over_cap:
                self.metrics.connection_rejected()
                self._shed(sock)
                continue
            self.metrics.connection_opened()
            trace.record_instant(
                "net.accept", cat="net", args={"peer_port": addr[1]}
            )
            thread = threading.Thread(
                target=self._conn_main,
                args=(conn,),
                name=f"recoil-net-conn-{addr[1]}",
                daemon=True,
            )
            conn.thread = thread
            thread.start()

    @staticmethod
    def _close_quiet(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    def _shed(self, sock: socket.socket) -> None:
        """Best-effort ``RETRY_AFTER`` to an over-cap peer, then close."""
        try:
            sock.settimeout(1.0)
            sock.sendall(
                protocol.encode_retry_after(RETRY_AFTER_S)
            )
        except OSError:
            pass
        finally:
            self._close_quiet(sock)

    # -- connection loop -----------------------------------------------

    def _conn_main(self, conn: _Connection) -> None:
        try:
            while not self._draining.is_set():
                try:
                    ftype, body, t_first = self._read_request(conn)
                except _PeerClosed as closed:
                    if closed.midframe:
                        self.metrics.record_transport_error()
                    return
                t_read = time.perf_counter()
                conn.write_s = 0.0
                conn.trace_req = trace.new_request()
                conn.trace_root = trace.next_span_id()
                m = self.metrics
                traced = {"req": conn.trace_req, "parent": conn.trace_root}
                m.stage(
                    "read",
                    t_first,
                    t_read,
                    args={"op": ftype, "bytes": len(body)},
                    **traced,
                )
                conn.busy = True
                try:
                    self._handle(conn, ftype, body)
                finally:
                    conn.busy = False
                    t_done = time.perf_counter()
                    # handle excludes time spent writing frames, so
                    # read + handle + write == e2e (stage-sum rule).
                    m.stage(
                        "handle",
                        t_read,
                        t_done,
                        excluded_s=conn.write_s,
                        **traced,
                    )
                    m.stage(
                        "e2e",
                        t_first,
                        t_done,
                        req=conn.trace_req,
                        sid=conn.trace_root,
                        args={"op": ftype},
                    )
                    conn.trace_req = None
                    conn.trace_root = None
        except _Deadline as kill:
            self.metrics.record_deadline_kill(write=kill.write)
        except ProtocolError as exc:
            self.metrics.record_protocol_error()
            self._try_send_error(conn, exc)
        except (TimeoutError, OSError):
            if not conn.forced:
                self.metrics.record_transport_error()
        except Exception as exc:  # a bug must close one conn, not the server
            self.metrics.record_transport_error()
            self._try_send_error(
                conn, ServeError(f"internal error: {exc!r}")
            )
        finally:
            with self._lock:
                # Counted closed under the lock and before the socket
                # closes: shutdown() sees this connection gone only
                # once the metrics count it, and a peer that sees EOF
                # finds it counted too.
                self._conns.discard(conn)
                self.metrics.connection_closed()
            conn.close()
            if self._draining.is_set():
                conn.record_drain_once(
                    self.metrics, forced=conn.forced
                )

    def _try_send_error(self, conn: _Connection, exc: BaseException) -> None:
        try:
            conn.sock.settimeout(self.config.write_timeout_s)
            conn.sock.sendall(protocol.encode_error(exc))
        except OSError:
            pass

    # -- reading -------------------------------------------------------

    def _recv_exact(
        self, conn: _Connection, n: int, deadline: float
    ) -> bytes:
        buf = bytearray()
        sock = conn.sock
        while len(buf) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Deadline(write=False)
            sock.settimeout(remaining)
            try:
                chunk = sock.recv(min(65536, n - len(buf)))
            except TimeoutError:
                raise _Deadline(write=False) from None
            if not chunk:
                raise _PeerClosed(midframe=True)
            buf += chunk
        self.metrics.record_bytes(read=n)
        return bytes(buf)

    def _read_request(self, conn: _Connection) -> tuple[int, bytes, float]:
        """One complete request frame, plus its first-byte timestamp
        (``perf_counter``) — the start of the request's stage clock.

        Two deadline phases: the *idle* wait for the first byte of the
        next request is bounded by ``idle_timeout_s`` (dead peers);
        once the first byte arrives, header + body must complete
        within ``read_timeout_s`` (slow loris).
        """
        sock = conn.sock
        sock.settimeout(self.config.idle_timeout_s)
        try:
            first = sock.recv(1)
        except TimeoutError:
            raise _Deadline(write=False) from None
        if not first:
            raise _PeerClosed(midframe=False)
        t_first = time.perf_counter()
        faults.fire(faults.NET_READ)
        deadline = time.monotonic() + self.config.read_timeout_s
        header = first + self._recv_exact(
            conn, protocol.HEADER_BYTES - 1, deadline
        )
        ftype, length = protocol.parse_header(header, protocol.REQUEST_TYPES)
        body = self._recv_exact(conn, length, deadline) if length else b""
        return ftype, body, t_first

    # -- writing -------------------------------------------------------

    def _respond(self, conn: _Connection, frames) -> None:
        """Send one response (one or more frames) under the write
        deadline.  ``net.write`` and ``net.stall`` fire once per
        response, not per chunk, so chaos probabilities compose
        per-request."""
        t0 = time.perf_counter()
        faults.fire(faults.NET_WRITE)
        if faults.triggered(faults.NET_STALL):
            self.metrics.record_stall()
            time.sleep(self.config.stall_inject_s)
        deadline = time.monotonic() + self.config.write_timeout_s
        sock = conn.sock
        for frame in frames:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Deadline(write=True)
            sock.settimeout(remaining)
            try:
                sock.sendall(frame)
            except TimeoutError:
                raise _Deadline(write=True) from None
            self.metrics.record_bytes(written=len(frame))
        t1 = time.perf_counter()
        conn.write_s += t1 - t0
        self.metrics.stage(
            "write", t0, t1, req=conn.trace_req, parent=conn.trace_root
        )

    def _stream_frames(
        self, kind: int, dtype: str, payload: bytes, item_count: int
    ):
        yield protocol.encode_stream_begin(
            kind, dtype, len(payload), item_count
        )
        for chunk in protocol.iter_chunks(payload, self.config.chunk_bytes):
            if len(chunk):
                yield protocol.encode_frame(
                    protocol.ST_STREAM_CHUNK, bytes(chunk)
                )
        yield protocol.encode_stream_end(protocol.crc32(payload))

    # -- dispatch ------------------------------------------------------

    def _handle(self, conn: _Connection, ftype: int, body: bytes) -> None:
        try:
            if ftype == protocol.OP_PING:
                frames = [protocol.encode_frame(protocol.ST_OK, body)]
            elif ftype == protocol.OP_METRICS:
                snap = json.dumps(self.service.metrics_snapshot())
                frames = [
                    protocol.encode_frame(
                        protocol.ST_OK, snap.encode("utf-8")
                    )
                ]
            elif ftype == protocol.OP_SERVE:
                name, capacity = protocol.parse_serve_request(body)
                blob = self.service.serve(name, capacity)
                frames = self._stream_frames(
                    protocol.KIND_BYTES, "", blob, len(blob)
                )
            elif ftype == protocol.OP_TRACE:
                clear = protocol.parse_trace_request(body)
                spans = trace.drain() if clear else trace.snapshot()
                doc = trace.chrome_trace(spans)
                payload = json.dumps(doc).encode("utf-8")
                frames = self._stream_frames(
                    protocol.KIND_BYTES, "", payload, len(payload)
                )
            elif ftype == protocol.OP_DECODE:
                name, capacity, timeout = protocol.parse_decode_request(
                    body
                )
                # Trace linkage kwargs only when a request id exists:
                # the untraced hot path stays a plain 3-arg call (and
                # keeps working against monkeypatched/test doubles).
                trace_kwargs = (
                    {
                        "trace_req": conn.trace_req,
                        "trace_parent": conn.trace_root,
                    }
                    if conn.trace_req is not None
                    else {}
                )
                symbols = self.service.decompress(
                    name, capacity, timeout=timeout, **trace_kwargs
                )
                payload = symbols.tobytes()
                frames = self._stream_frames(
                    protocol.KIND_ARRAY,
                    symbols.dtype.str,
                    payload,
                    symbols.size,
                )
            elif ftype == protocol.OP_PUT:
                name, blob = protocol.parse_put_request(body)
                asset = self.service.put_container(name, blob)
                frames = [
                    protocol.encode_frame(
                        protocol.ST_OK,
                        asset.num_symbols.to_bytes(8, "big"),
                    )
                ]
            else:  # pragma: no cover - parse_header rejects these
                raise ProtocolError(f"unhandled frame type 0x{ftype:02x}")
        except ProtocolError:
            raise  # framing/body violation: the conn loop answers + closes
        except AdmissionError:
            # Load shed on a live connection: the client backs off.
            self.metrics.record_retry_after()
            self.metrics.record_request(ok=False)
            self._respond(
                conn,
                [protocol.encode_retry_after(RETRY_AFTER_S)],
            )
            return
        except TimeoutError as exc:
            # service.decompress: deadline passed while already in the
            # kernel — the wire answer is the same typed DeadlineError.
            self.metrics.record_request(ok=False)
            self._respond(
                conn,
                [
                    protocol.encode_error(
                        DeadlineError(
                            str(exc) or "deadline expired in flight"
                        )
                    )
                ],
            )
            return
        except ReproError as exc:
            self.metrics.record_request(ok=False)
            self._respond(conn, [protocol.encode_error(exc)])
            return
        except MemoryError:
            self.metrics.record_request(ok=False)
            self._respond(
                conn,
                [
                    protocol.encode_error(
                        ServeError("server out of memory for this request")
                    )
                ],
            )
            return
        except Exception as exc:  # typed wire error, never a crash
            self.metrics.record_request(ok=False)
            self._respond(
                conn,
                [protocol.encode_error(ServeError(f"internal error: {exc!r}"))],
            )
            return
        self._respond(conn, frames)
        self.metrics.record_request(ok=True)
