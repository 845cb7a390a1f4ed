"""Wire protocol for the network serving front-end.

A small length-prefixed binary request/response protocol spoken by
:class:`repro.serve.net.NetServer` and
:class:`repro.serve.client.RecoilClient` (DESIGN.md §16).  Every frame
— request or response — has the same 7-byte header::

    | magic "Rn" (2B) | frame type (u8) | body length (u32, BE) | body |

Requests are single frames.  Small responses (ping, put, metrics) are
single ``ST_OK`` frames; container bytes and decoded symbol arrays are
**streamed**: one ``ST_STREAM_BEGIN`` frame declaring kind/dtype/total
size, zero or more ``ST_STREAM_CHUNK`` frames of raw payload, and one
``ST_STREAM_END`` frame carrying the CRC-32 of the whole payload so the
receiver can verify integrity without buffering limits on the sender.

Robustness contract (both sides):

- every parser is **strict**: bad magic, an unknown frame type, a
  declared length above the frame cap, a truncated or over-long body,
  or invalid UTF-8 raises :class:`~repro.errors.ProtocolError` — never
  a builtin leaking from ``struct``/``codecs``;
- the header is validated *before* the body is read, so an implausible
  declared length can never drive an allocation;
- error responses are typed: :data:`ERROR_CODES` maps the library's
  exception hierarchy onto one-byte wire codes and back, so a client
  re-raises the same exception class the server caught.

The module is pure (bytes in, bytes/values out) — all socket I/O,
deadlines and fault points live in :mod:`repro.serve.net` and
:mod:`repro.serve.client`.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import (
    AdmissionError,
    ContainerError,
    DeadlineError,
    DecodeError,
    EncodeError,
    FaultInjected,
    IntegrityError,
    MetadataError,
    ModelError,
    ParallelismError,
    ProtocolError,
    ReproError,
    ServeError,
)

#: frame magic: cheap detection of a peer speaking something else.
MAGIC = b"Rn"
_HEADER = struct.Struct(">2sBI")
#: bytes of every frame header.
HEADER_BYTES = _HEADER.size
#: hard cap on a single frame body (requests and non-streamed
#: responses).  Streamed payloads are unbounded — their chunks are
#: individually small.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: cap on asset-name bytes inside a request.
MAX_NAME_BYTES = 1024

# -- frame types ------------------------------------------------------------

OP_PING = 0x01  #: echo body (liveness / latency probe)
OP_SERVE = 0x02  #: shrunk container bytes for (name, capacity)
OP_DECODE = 0x03  #: decoded symbols for (name, capacity[, timeout])
OP_PUT = 0x04  #: store a container blob under a name
OP_METRICS = 0x05  #: JSON metrics snapshot
OP_TRACE = 0x06  #: Chrome trace-event JSON of the server's span ring

ST_OK = 0x80  #: complete response in one frame
ST_STREAM_BEGIN = 0x81  #: streamed response follows
ST_STREAM_CHUNK = 0x82  #: raw payload bytes
ST_STREAM_END = 0x83  #: CRC-32 trailer, terminates the stream
ST_ERROR = 0x90  #: typed error (code + message)
ST_RETRY_AFTER = 0x91  #: load shed: retry after the suggested delay

REQUEST_TYPES = (
    OP_PING,
    OP_SERVE,
    OP_DECODE,
    OP_PUT,
    OP_METRICS,
    OP_TRACE,
)
RESPONSE_TYPES = (
    ST_OK,
    ST_STREAM_BEGIN,
    ST_STREAM_CHUNK,
    ST_STREAM_END,
    ST_ERROR,
    ST_RETRY_AFTER,
)

#: stream payload kinds (``ST_STREAM_BEGIN``).
KIND_BYTES = 0  #: raw bytes (container blobs)
KIND_ARRAY = 1  #: a numpy array (dtype string travels in the header)

# -- typed error codes ------------------------------------------------------

ERR_PROTOCOL = 1
ERR_SERVE = 2
ERR_ADMISSION = 3
ERR_DEADLINE = 4
ERR_DECODE = 5
ERR_METADATA = 6
ERR_CONTAINER = 7
ERR_MODEL = 8
ERR_ENCODE = 9
ERR_PARALLELISM = 10
ERR_FAULT = 11
ERR_INTERNAL = 12
ERR_INTEGRITY = 13

#: wire code -> exception class (client-side re-raise).
ERROR_CODES: dict[int, type] = {
    ERR_PROTOCOL: ProtocolError,
    ERR_SERVE: ServeError,
    ERR_ADMISSION: AdmissionError,
    ERR_DEADLINE: DeadlineError,
    ERR_DECODE: DecodeError,
    ERR_METADATA: MetadataError,
    ERR_CONTAINER: ContainerError,
    ERR_MODEL: ModelError,
    ERR_ENCODE: EncodeError,
    ERR_PARALLELISM: ParallelismError,
    ERR_FAULT: FaultInjected,
    ERR_INTERNAL: ServeError,
    ERR_INTEGRITY: IntegrityError,
}

#: exception class -> wire code, most-derived first (isinstance walk).
_CODE_FOR: tuple[tuple[type, int], ...] = (
    (ProtocolError, ERR_PROTOCOL),
    (IntegrityError, ERR_INTEGRITY),
    (AdmissionError, ERR_ADMISSION),
    (DeadlineError, ERR_DEADLINE),
    (FaultInjected, ERR_FAULT),
    (DecodeError, ERR_DECODE),
    (MetadataError, ERR_METADATA),
    (ContainerError, ERR_CONTAINER),
    (ModelError, ERR_MODEL),
    (EncodeError, ERR_ENCODE),
    (ParallelismError, ERR_PARALLELISM),
    (ServeError, ERR_SERVE),
    (ReproError, ERR_SERVE),
)


def error_code_for(exc: BaseException) -> int:
    """Wire code for an exception (``ERR_INTERNAL`` when unmapped)."""
    for cls, code in _CODE_FOR:
        if isinstance(exc, cls):
            return code
    return ERR_INTERNAL


def exception_for(code: int, message: str) -> ReproError:
    """Reconstruct the typed exception a server shipped."""
    cls = ERROR_CODES.get(code, ServeError)
    return cls(message)


crc32 = zlib.crc32

# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def encode_frame(ftype: int, body: bytes = b"") -> bytes:
    """One complete frame (header + body)."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body):,} bytes exceeds the "
            f"{MAX_FRAME_BYTES:,}-byte frame cap"
        )
    return _HEADER.pack(MAGIC, ftype, len(body)) + body


def parse_header(
    header: bytes, expect: tuple[int, ...]
) -> tuple[int, int]:
    """Validate a 7-byte header; returns ``(frame_type, body_len)``.

    ``expect`` is the set of frame types legal in this direction —  a
    response type arriving where a request is expected (or vice versa)
    is a protocol violation, not a dispatch case.

    :raises ProtocolError: short header, bad magic, unknown/unexpected
        frame type, or a declared length above ``MAX_FRAME_BYTES``
        (checked *here*, before any body allocation).
    """
    if len(header) < HEADER_BYTES:
        raise ProtocolError(
            f"truncated frame header ({len(header)} of "
            f"{HEADER_BYTES} bytes)"
        )
    magic, ftype, length = _HEADER.unpack(header[:HEADER_BYTES])
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if ftype not in REQUEST_TYPES and ftype not in RESPONSE_TYPES:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    if ftype not in expect:
        raise ProtocolError(
            f"unexpected frame type 0x{ftype:02x} for this direction"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared body length {length:,} exceeds the "
            f"{MAX_FRAME_BYTES:,}-byte frame cap"
        )
    return ftype, length


class _Cursor:
    """Strict big-endian body reader: every field read is bounds
    checked and :meth:`done` rejects trailing junk."""

    def __init__(self, body: bytes, what: str) -> None:
        self._body = body
        self._pos = 0
        self._what = what

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._body):
            raise ProtocolError(
                f"truncated {self._what} body (wanted {n} more bytes "
                f"at offset {self._pos}, have "
                f"{len(self._body) - self._pos})"
            )
        out = self._body[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def rest(self) -> bytes:
        out = self._body[self._pos :]
        self._pos = len(self._body)
        return out

    def text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"invalid UTF-8 in {self._what} body: {exc}"
            ) from None

    def done(self) -> None:
        if self._pos != len(self._body):
            raise ProtocolError(
                f"{len(self._body) - self._pos} trailing bytes after "
                f"{self._what} body"
            )


def asset_name_problem(name: str) -> str | None:
    """Why ``name`` is not a valid asset name, or ``None`` if it is.

    Asset names become file names under a store directory
    (:mod:`repro.serve.disk`), so anything that could escape that
    directory or confuse a filesystem is rejected at every boundary:
    empty names, names over :data:`MAX_NAME_BYTES` UTF-8 bytes, path
    separators, ``..``, bare ``.``, and control characters.  The store
    raises :class:`~repro.errors.ServeError`, the wire parsers
    :class:`~repro.errors.ProtocolError` — both from this one rule.
    """
    if not isinstance(name, str) or not name:
        return "asset name must be a non-empty string"
    raw = name.encode("utf-8", errors="surrogatepass")
    if len(raw) > MAX_NAME_BYTES:
        return (
            f"asset name of {len(raw)} UTF-8 bytes exceeds the "
            f"{MAX_NAME_BYTES}-byte cap"
        )
    if "/" in name or "\\" in name:
        return f"asset name {name!r} contains a path separator"
    if ".." in name:
        return f"asset name {name!r} contains '..'"
    if name == ".":
        return "asset name '.' is reserved"
    if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in name):
        return f"asset name {name!r} contains control characters"
    return None


def _name_bytes(name: str) -> bytes:
    problem = asset_name_problem(name)
    if problem is not None:
        raise ProtocolError(problem)
    return name.encode("utf-8")


def _read_name(cur: _Cursor) -> str:
    n = cur.u16()
    if not 1 <= n <= MAX_NAME_BYTES:
        raise ProtocolError(
            f"asset name length {n} outside 1..{MAX_NAME_BYTES}"
        )
    name = cur.text(n)
    problem = asset_name_problem(name)
    if problem is not None:
        raise ProtocolError(problem)
    return name


# -- request bodies ---------------------------------------------------------


def encode_serve_request(name: str, capacity: int) -> bytes:
    raw = _name_bytes(name)
    return encode_frame(
        OP_SERVE,
        len(raw).to_bytes(2, "big") + raw + int(capacity).to_bytes(4, "big"),
    )


def parse_serve_request(body: bytes) -> tuple[str, int]:
    cur = _Cursor(body, "serve request")
    name = _read_name(cur)
    capacity = cur.u32()
    cur.done()
    if capacity < 1:
        raise ProtocolError(f"capacity must be >= 1, got {capacity}")
    return name, capacity


def encode_decode_request(
    name: str, capacity: int, timeout_s: float | None = None
) -> bytes:
    raw = _name_bytes(name)
    timeout_ms = 0 if timeout_s is None else max(1, int(timeout_s * 1000))
    body = (
        len(raw).to_bytes(2, "big")
        + raw
        + int(capacity).to_bytes(4, "big")
        + timeout_ms.to_bytes(4, "big")
    )
    return encode_frame(OP_DECODE, body)


def parse_decode_request(body: bytes) -> tuple[str, int, float | None]:
    cur = _Cursor(body, "decode request")
    name = _read_name(cur)
    capacity = cur.u32()
    timeout_ms = cur.u32()
    cur.done()
    if capacity < 1:
        raise ProtocolError(f"capacity must be >= 1, got {capacity}")
    return name, capacity, (timeout_ms / 1000.0 if timeout_ms else None)


def encode_put_request(name: str, blob: bytes) -> bytes:
    raw = _name_bytes(name)
    return encode_frame(OP_PUT, len(raw).to_bytes(2, "big") + raw + blob)


def parse_put_request(body: bytes) -> tuple[str, bytes]:
    cur = _Cursor(body, "put request")
    name = _read_name(cur)
    blob = cur.rest()
    if not blob:
        raise ProtocolError("put request carries no container bytes")
    return name, blob


def encode_trace_request(clear: bool = False) -> bytes:
    """Ask the server for its span ring as Chrome trace JSON.

    ``clear`` drains the ring (the spans ship and are forgotten);
    otherwise the ring is snapshotted and keeps collecting.
    """
    return encode_frame(OP_TRACE, bytes([1 if clear else 0]))


def parse_trace_request(body: bytes) -> bool:
    cur = _Cursor(body, "trace request")
    flag = cur.u8()
    cur.done()
    if flag not in (0, 1):
        raise ProtocolError(f"trace clear flag must be 0 or 1, got {flag}")
    return bool(flag)


# -- response bodies --------------------------------------------------------


def encode_stream_begin(
    kind: int, dtype: str, total_bytes: int, item_count: int
) -> bytes:
    raw = dtype.encode("ascii")
    body = (
        bytes([kind])
        + len(raw).to_bytes(2, "big")
        + raw
        + total_bytes.to_bytes(8, "big")
        + item_count.to_bytes(8, "big")
    )
    return encode_frame(ST_STREAM_BEGIN, body)


def parse_stream_begin(body: bytes) -> tuple[int, str, int, int]:
    """``(kind, dtype, total_bytes, item_count)`` of a stream header."""
    cur = _Cursor(body, "stream-begin")
    kind = cur.u8()
    if kind not in (KIND_BYTES, KIND_ARRAY):
        raise ProtocolError(f"unknown stream kind {kind}")
    n = cur.u16()
    if n > 32:
        raise ProtocolError(f"implausible dtype string length {n}")
    dtype = cur.text(n)
    total = cur.u64()
    count = cur.u64()
    cur.done()
    return kind, dtype, total, count


def encode_stream_end(checksum: int) -> bytes:
    return encode_frame(ST_STREAM_END, checksum.to_bytes(4, "big"))


def parse_stream_end(body: bytes) -> int:
    cur = _Cursor(body, "stream-end")
    checksum = cur.u32()
    cur.done()
    return checksum


def encode_error(exc: BaseException) -> bytes:
    code = error_code_for(exc)
    message = str(exc).encode("utf-8")[: MAX_FRAME_BYTES - 1]
    return encode_frame(ST_ERROR, bytes([code]) + message)


def parse_error(body: bytes) -> ReproError:
    cur = _Cursor(body, "error")
    code = cur.u8()
    message = cur.rest().decode("utf-8", errors="replace")
    return exception_for(code, message)


def encode_retry_after(delay_s: float) -> bytes:
    return encode_frame(ST_RETRY_AFTER, struct.pack(">d", delay_s))


def parse_retry_after(body: bytes) -> float:
    cur = _Cursor(body, "retry-after")
    delay = cur.f64()
    cur.done()
    if not 0.0 <= delay <= 3600.0:
        raise ProtocolError(f"implausible retry-after delay {delay}")
    return delay


def iter_chunks(payload: bytes | memoryview, chunk_bytes: int):
    """Yield ``payload`` as ``<= chunk_bytes`` memoryview slices."""
    view = memoryview(payload)
    for off in range(0, len(view), chunk_bytes):
        yield view[off : off + chunk_bytes]
    if not len(view):
        yield view
