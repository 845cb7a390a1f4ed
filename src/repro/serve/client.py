"""Blocking client for the network serving front-end.

:class:`RecoilClient` speaks the :mod:`repro.serve.protocol` wire
format against a :class:`~repro.serve.net.NetServer` over one TCP
connection, reconnecting transparently when the server (or a network
fault) closed it between requests.

Shed handling is the client's half of the overload contract
(DESIGN.md §16): a ``RETRY_AFTER`` response — sent when the server is
over its connection cap or its admission control rejected the request
— is retried with **capped exponential backoff plus jitter**, never
below the server's suggested delay.  Jitter is the load-shedding
essential: without it every shed client sleeps the same delay and the
whole rejected cohort returns in one synchronized thundering herd,
re-creating the overload that shed them.  After ``max_retries``
attempts the client gives up and raises the server's
:class:`~repro.errors.AdmissionError` to the caller.

Responses are verified end to end: streamed payloads must match the
declared total length *and* the CRC-32 trailer, array responses must
carry a plausible numeric dtype whose itemsize divides the payload —
anything else raises :class:`~repro.errors.ProtocolError` rather than
handing corrupt bytes to the caller.
"""

from __future__ import annotations

import random
import socket
import time

import numpy as np

from repro.errors import AdmissionError, ProtocolError, ServeError
from repro.serve import protocol


#: TCP connect deadline, in seconds.
CONNECT_TIMEOUT_S = 5.0


class RecoilClient:
    """One connection to a Recoil network server.

    :param host: server host.
    :param port: server port.
    :param timeout_s: per-request response deadline (client side).
    :param max_retries: additional attempts after a ``RETRY_AFTER``.
    :param backoff_base_s: first backoff delay; doubles per attempt.
    :param backoff_cap_s: ceiling on one backoff delay.
    :param seed: seeds the jitter RNG (determinism in tests).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 30.0,
        max_retries: int = 6,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        #: RETRY_AFTER frames honored (visible to the load generator).
        self.retries = 0

    # -- connection management -----------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT_S
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            self._sock = self._connect()
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "RecoilClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw roundtrip -------------------------------------------------

    def _recv_exact(self, sock: socket.socket, n: int, deadline: float):
        buf = bytearray()
        while len(buf) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"no complete response from {self.host}:{self.port} "
                    f"within {self.timeout_s}s"
                )
            sock.settimeout(remaining)
            chunk = sock.recv(min(65536, n - len(buf)))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        return bytes(buf)

    def _read_frame(
        self, sock: socket.socket, deadline: float
    ) -> tuple[int, bytes]:
        header = self._recv_exact(sock, protocol.HEADER_BYTES, deadline)
        ftype, length = protocol.parse_header(header, protocol.RESPONSE_TYPES)
        body = self._recv_exact(sock, length, deadline) if length else b""
        return ftype, body

    def _read_stream(
        self, sock: socket.socket, first_body: bytes, deadline: float
    ) -> tuple[int, str, int, bytes]:
        kind, dtype, total, count = protocol.parse_stream_begin(first_body)
        parts: list[bytes] = []
        received = 0
        while True:
            ftype, body = self._read_frame(sock, deadline)
            if ftype == protocol.ST_STREAM_CHUNK:
                received += len(body)
                if received > total:
                    raise ProtocolError(
                        f"stream overran its declared {total:,} bytes"
                    )
                parts.append(body)
                continue
            if ftype == protocol.ST_STREAM_END:
                break
            raise ProtocolError(
                f"unexpected frame type 0x{ftype:02x} inside a stream"
            )
        payload = b"".join(parts)
        if len(payload) != total:
            raise ProtocolError(
                f"stream ended after {len(payload):,} of {total:,} "
                "declared bytes"
            )
        if protocol.crc32(payload) != protocol.parse_stream_end(body):
            raise ProtocolError("stream payload failed its CRC-32 check")
        return kind, dtype, count, payload

    def _attempt(self, request: bytes):
        """One send/receive attempt.  Returns ``("ok", body)``,
        ``("stream", kind, dtype, count, payload)`` or
        ``("retry", delay_s)``."""
        sock = self._ensure_connected()
        deadline = time.monotonic() + self.timeout_s
        sock.settimeout(self.timeout_s)
        sock.sendall(request)
        ftype, body = self._read_frame(sock, deadline)
        if ftype == protocol.ST_OK:
            return ("ok", body)
        if ftype == protocol.ST_STREAM_BEGIN:
            return ("stream", *self._read_stream(sock, body, deadline))
        if ftype == protocol.ST_ERROR:
            raise protocol.parse_error(body)
        if ftype == protocol.ST_RETRY_AFTER:
            return ("retry", protocol.parse_retry_after(body))
        raise ProtocolError(
            f"unexpected response frame type 0x{ftype:02x}"
        )

    def _roundtrip(self, request: bytes):
        """Send with shed-retry: capped exponential backoff + jitter,
        honoring the server's suggested delay as a floor."""
        last_delay = 0.0
        for attempt in range(self.max_retries + 1):
            try:
                result = self._attempt(request)
            except ProtocolError:
                self._drop_connection()
                raise
            except TimeoutError:
                self._drop_connection()
                raise
            except OSError as exc:
                self._drop_connection()
                raise ConnectionError(
                    f"connection to {self.host}:{self.port} failed: {exc}"
                ) from exc
            if result[0] != "retry":
                return result
            # The server shed this request (or the whole connection —
            # it may have closed after the frame; reconnect lazily).
            self._drop_connection()
            self.retries += 1
            last_delay = result[1]
            backoff = min(
                self.backoff_cap_s, self.backoff_base_s * (2.0**attempt)
            )
            jittered = backoff * (0.5 + self._rng.random() / 2.0)
            time.sleep(max(jittered, last_delay))
        raise AdmissionError(
            f"server at {self.host}:{self.port} still shedding after "
            f"{self.max_retries + 1} attempts "
            f"(last suggested delay {last_delay:.3f}s)"
        )

    # -- operations ----------------------------------------------------

    def ping(self, payload: bytes = b"") -> bytes:
        """Echo roundtrip; returns the echoed payload."""
        kind, body = self._roundtrip(
            protocol.encode_frame(protocol.OP_PING, payload)
        )
        if kind != "ok":
            raise ProtocolError(f"ping answered with a {kind} response")
        if body != payload:
            raise ProtocolError("ping echo did not match the payload")
        return body

    def serve(self, name: str, capacity: int) -> bytes:
        """Shrunk container bytes for ``(name, capacity)``."""
        result = self._roundtrip(
            protocol.encode_serve_request(name, capacity)
        )
        if result[0] != "stream":
            raise ProtocolError(
                f"serve answered with a {result[0]} response"
            )
        _, kind, _, count, payload = result
        if kind != protocol.KIND_BYTES:
            raise ProtocolError(f"serve stream has kind {kind}, not bytes")
        if count != len(payload):
            raise ProtocolError(
                f"serve stream count {count} != payload size {len(payload)}"
            )
        return payload

    def decompress(
        self, name: str, capacity: int, timeout: float | None = None
    ) -> np.ndarray:
        """Decoded symbols for ``(name, capacity)`` as a numpy array."""
        result = self._roundtrip(
            protocol.encode_decode_request(name, capacity, timeout)
        )
        if result[0] != "stream":
            raise ProtocolError(
                f"decode answered with a {result[0]} response"
            )
        _, kind, dtype_str, count, payload = result
        if kind != protocol.KIND_ARRAY:
            raise ProtocolError(
                f"decode stream has kind {kind}, not array"
            )
        try:
            dtype = np.dtype(dtype_str)
        except TypeError:
            raise ProtocolError(
                f"decode stream carries invalid dtype {dtype_str!r}"
            ) from None
        if dtype.kind not in "uif" or dtype.itemsize == 0:
            raise ProtocolError(
                f"decode stream carries non-numeric dtype {dtype_str!r}"
            )
        if count * dtype.itemsize != len(payload):
            raise ProtocolError(
                f"decode stream declares {count} x {dtype.itemsize}B items "
                f"but carries {len(payload)} bytes"
            )
        return np.frombuffer(payload, dtype=dtype)

    def put_container(self, name: str, blob: bytes) -> int:
        """Store a container blob; returns its symbol count."""
        kind, body = self._roundtrip(
            protocol.encode_put_request(name, blob)
        )
        if kind != "ok":
            raise ProtocolError(f"put answered with a {kind} response")
        if len(body) != 8:
            raise ProtocolError(
                f"put response body has {len(body)} bytes, expected 8"
            )
        return int.from_bytes(body, "big")

    def trace(self, clear: bool = False) -> dict:
        """The server's span ring as a Chrome trace-event document.

        ``clear`` drains the server's ring; otherwise it keeps
        collecting.  The returned dict is Perfetto-loadable
        (``json.dump`` it to a file) and passes
        :func:`repro.trace.validate_chrome_trace`.
        """
        import json

        result = self._roundtrip(protocol.encode_trace_request(clear))
        if result[0] != "stream":
            raise ProtocolError(
                f"trace answered with a {result[0]} response"
            )
        _, kind, _, count, payload = result
        if kind != protocol.KIND_BYTES:
            raise ProtocolError(f"trace stream has kind {kind}, not bytes")
        if count != len(payload):
            raise ProtocolError(
                f"trace stream count {count} != payload size {len(payload)}"
            )
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                f"trace response is not valid JSON: {exc}"
            ) from None
        if not isinstance(doc, dict):
            raise ProtocolError("trace response is not a JSON object")
        return doc

    def metrics(self) -> dict:
        """The server's unified metrics snapshot."""
        import json

        kind, body = self._roundtrip(
            protocol.encode_frame(protocol.OP_METRICS)
        )
        if kind != "ok":
            raise ProtocolError(f"metrics answered with a {kind} response")
        try:
            snap = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                f"metrics response is not valid JSON: {exc}"
            ) from None
        if not isinstance(snap, dict):
            raise ProtocolError("metrics response is not a JSON object")
        return snap
