"""Network front-end: wire roundtrips, hostile clients, drain, chaos.

The server's contract (DESIGN.md §16): every response that completes
is bit-identical to the reference decode, every failure is a *typed*
wire error or a counted kill — never a crash, never a hang, never a
leaked socket — under slow-loris drips, never-reading peers, kill
-9'd clients, overload, and injected ``net.*`` faults.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.data import text_surrogate
from repro.errors import AdmissionError, ProtocolError, ServeError
from repro.serve import NetConfig, NetServer, RecoilClient, RecoilService
from repro.serve import protocol

SYMBOLS = 20_000
SPLITS = 32


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.reset()


@pytest.fixture(scope="module")
def payload():
    return text_surrogate(SYMBOLS, target_entropy=5.29, seed=11)


@pytest.fixture(scope="module")
def service(payload):
    with RecoilService() as svc:
        svc.put_asset("a", payload, num_splits=SPLITS)
        yield svc


def _server(service, **overrides) -> NetServer:
    config = NetConfig(port=0, **overrides)
    return NetServer(service, config).start()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("closed")
        buf += chunk
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    header = _recv_exact(sock, protocol.HEADER_BYTES)
    ftype, length = protocol.parse_header(header, protocol.RESPONSE_TYPES)
    return ftype, _recv_exact(sock, length) if length else b""


def _wait_closed(sock: socket.socket, timeout: float = 5.0) -> bool:
    """True iff the server closes ``sock`` within ``timeout``: EOF or
    a reset; a wait that times out is False."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False
    except ConnectionError:
        return True


def test_wait_closed_needs_the_peer_to_close():
    """The helper the deadline and drain tests rely on: a peer that
    stays open is not closed, however long the wait."""
    sock, peer = socket.socketpair()
    with sock, peer:
        assert not _wait_closed(sock, timeout=0.2)
        peer.close()
        assert _wait_closed(sock, timeout=5.0)


class TestRoundtrips:
    def test_all_operations_bit_identical(self, service, payload):
        from repro.core import recoil_decompress

        with _server(service) as server:
            host, port = server.address
            with RecoilClient(host, port, timeout_s=30) as client:
                assert client.ping(b"probe") == b"probe"
                assert client.ping() == b""
                out = client.decompress("a", 4)
                assert np.array_equal(out, payload)
                blob = client.serve("a", 4)
                assert np.array_equal(recoil_decompress(blob), payload)
                assert client.put_container("net-put", blob) == SYMBOLS
                again = client.decompress("net-put", 4)
                assert np.array_equal(again, payload)
                snap = client.metrics()
                assert snap["network"]["connections"]["active"] == 1

    def test_many_requests_one_connection(self, service, payload):
        with _server(service) as server:
            host, port = server.address
            with RecoilClient(host, port, timeout_s=30) as client:
                for cap in (1, 4, 16, 4, 1):
                    assert np.array_equal(
                        client.decompress("a", cap), payload
                    )
            # The server records requests.ok *after* the final sendall,
            # so the client can observe its response a beat before the
            # counter lands — poll briefly instead of racing it.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.metrics.snapshot()["requests"]["ok"] == 5:
                    break
                time.sleep(0.01)
            snap = server.metrics.snapshot()
        assert snap["connections"]["opened"] == 1
        assert snap["requests"]["ok"] == 5
        assert snap["requests"]["failed"] == 0

    def test_concurrent_clients_bit_identical(self, service, payload):
        results: list[np.ndarray | None] = [None] * 8
        with _server(service) as server:
            host, port = server.address

            def hit(i: int) -> None:
                with RecoilClient(host, port, timeout_s=60) as client:
                    results[i] = client.decompress("a", 1 + i % 3)

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        for out in results:
            assert out is not None and np.array_equal(out, payload)

    def test_unknown_asset_typed_error_connection_survives(
        self, service, payload
    ):
        with _server(service) as server:
            host, port = server.address
            with RecoilClient(host, port, timeout_s=30) as client:
                with pytest.raises(ServeError):
                    client.serve("no-such-asset", 4)
                # Same connection keeps working after the typed error.
                assert np.array_equal(client.decompress("a", 4), payload)

    def test_large_streamed_response(self, service):
        big = text_surrogate(120_000, target_entropy=5.29, seed=3)
        service.put_asset("big", big, num_splits=SPLITS)
        with _server(service, chunk_bytes=4096) as server:
            host, port = server.address
            with RecoilClient(host, port, timeout_s=60) as client:
                assert np.array_equal(client.decompress("big", 8), big)


class TestDeadlines:
    def test_slow_loris_killed(self, service):
        with _server(service, read_timeout_s=0.3) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5)
            try:
                sock.sendall(protocol.MAGIC + bytes([protocol.OP_PING]))
                # ... and never send the rest of the header.
                assert _wait_closed(sock, timeout=5.0)
            finally:
                sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.metrics.snapshot()["deadline_kills"]["read"]:
                    break
                time.sleep(0.01)
            snap = server.metrics.snapshot()
        assert snap["deadline_kills"]["read"] == 1
        assert snap["connections"]["active"] == 0

    def test_peer_sees_eof_only_once_counted_closed(
        self, service, monkeypatch
    ):
        """The socket close is held open after the socket shuts, so a
        server that closed before it counted would be caught with
        ``connections.active`` still 1 when the peer reads EOF."""
        from repro.serve import net

        release = threading.Event()
        close = net._Connection.close

        def held_close(conn) -> None:
            close(conn)
            release.wait(10)

        monkeypatch.setattr(net._Connection, "close", held_close)
        with _server(service, read_timeout_s=0.3) as server:
            try:
                sock = socket.create_connection(server.address, timeout=5)
                try:
                    sock.sendall(protocol.MAGIC + bytes([protocol.OP_PING]))
                    sock.settimeout(5)
                    assert sock.recv(1) == b""
                    snap = server.metrics.snapshot()
                finally:
                    sock.close()
            finally:
                release.set()
        assert snap["deadline_kills"]["read"] == 1
        assert snap["connections"]["active"] == 0

    def test_idle_connection_killed(self, service):
        with _server(service, idle_timeout_s=0.2) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5)
            try:
                assert _wait_closed(sock, timeout=5.0)
            finally:
                sock.close()

    def test_slow_reader_write_killed(self, service):
        big = text_surrogate(200_000, target_entropy=5.29, seed=5)
        service.put_asset("wide", big, num_splits=SPLITS)
        with _server(
            service, write_timeout_s=0.5, send_buffer_bytes=8192
        ) as server:
            host, port = server.address
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(10)
                sock.connect((host, port))
                sock.sendall(protocol.encode_decode_request("wide", 4))
                # Read nothing: the server's sendall must wedge on the
                # full buffers and the write deadline must kill us.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if server.metrics.snapshot()["deadline_kills"]["write"]:
                        break
                    time.sleep(0.02)
            finally:
                sock.close()
            snap = server.metrics.snapshot()
        assert snap["deadline_kills"]["write"] == 1


class TestShedding:
    def test_over_cap_connection_gets_retry_after(self, service, payload):
        with _server(service, max_connections=1) as server:
            host, port = server.address
            holder = socket.create_connection((host, port), timeout=5)
            try:
                # Wait for the holder to be registered.
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if server.active_connections == 1:
                        break
                    time.sleep(0.01)
                extra = socket.create_connection((host, port), timeout=5)
                try:
                    extra.settimeout(5)
                    ftype, body = _recv_frame(extra)
                    assert ftype == protocol.ST_RETRY_AFTER
                    assert 0 < protocol.parse_retry_after(body) <= 3600
                    assert _wait_closed(extra)
                finally:
                    extra.close()
            finally:
                holder.close()
            snap = server.metrics.snapshot()
        assert snap["connections"]["rejected"] == 1
        assert snap["retry_afters_sent"] >= 1

    def test_client_backs_off_then_gives_up(self, service):
        with _server(service, max_connections=1) as server:
            host, port = server.address
            holder = socket.create_connection((host, port), timeout=5)
            try:
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if server.active_connections == 1:
                        break
                    time.sleep(0.01)
                client = RecoilClient(
                    host,
                    port,
                    timeout_s=5,
                    max_retries=2,
                    backoff_base_s=0.01,
                    backoff_cap_s=0.05,
                    seed=7,
                )
                with pytest.raises(AdmissionError, match="shedding"):
                    client.ping(b"x")
                assert client.retries == 3  # max_retries + 1 attempts
            finally:
                holder.close()
            # Capacity freed: the same client succeeds now.
            assert client.ping(b"x") == b"x"
            client.close()

    def test_admission_error_maps_to_retry_after(
        self, service, payload, monkeypatch
    ):
        """Service-level backpressure on a live connection: shed
        frames until admission clears, then the request succeeds on
        the same client without surfacing an error."""
        real = service.decompress
        rejections = {"left": 2}

        def flaky(name, capacity, timeout=None):
            if rejections["left"] > 0:
                rejections["left"] -= 1
                raise AdmissionError("synthetic backpressure")
            return real(name, capacity, timeout=timeout)

        monkeypatch.setattr(service, "decompress", flaky)
        with _server(service) as server:
            host, port = server.address
            with RecoilClient(
                host,
                port,
                timeout_s=30,
                max_retries=4,
                backoff_base_s=0.01,
                seed=3,
            ) as client:
                out = client.decompress("a", 4)
            assert np.array_equal(out, payload)
            assert client.retries == 2
            snap = server.metrics.snapshot()
        assert snap["retry_afters_sent"] == 2
        assert snap["requests"]["failed"] == 2


class TestDrain:
    def test_idle_connections_drain_clean(self, service):
        with _server(service) as server:
            host, port = server.address
            socks = [
                socket.create_connection((host, port), timeout=5)
                for _ in range(3)
            ]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.active_connections == 3:
                    break
                time.sleep(0.01)
            drain = server.shutdown()
            assert drain == {"clean": 3, "forced": 0}
            for sock in socks:
                assert _wait_closed(sock)
                sock.close()
            snap = server.metrics.snapshot()
            assert snap["connections"]["active"] == 0
        # Post-drain: the listener is gone.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_busy_connection_finishes_within_grace(
        self, service, payload, monkeypatch
    ):
        real = service.decompress
        started = threading.Event()

        def slow(name, capacity, timeout=None):
            started.set()
            time.sleep(0.3)
            return real(name, capacity, timeout=timeout)

        monkeypatch.setattr(service, "decompress", slow)
        with _server(service, drain_timeout_s=10) as server:
            host, port = server.address
            client = RecoilClient(host, port, timeout_s=30)
            result: list = []
            t = threading.Thread(
                target=lambda: result.append(client.decompress("a", 4))
            )
            t.start()
            assert started.wait(10)
            drain = server.shutdown()
            t.join(30)
            client.close()
        assert drain == {"clean": 1, "forced": 0}
        assert result and np.array_equal(result[0], payload)

    def test_stuck_connection_force_closed(self, service, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def wedged(name, capacity, timeout=None):
            started.set()
            release.wait(30)
            raise ServeError("wedged request aborted")

        monkeypatch.setattr(service, "decompress", wedged)
        try:
            with _server(service, drain_timeout_s=0.2) as server:
                host, port = server.address
                client = RecoilClient(host, port, timeout_s=30)
                errors: list = []

                def hit() -> None:
                    try:
                        client.decompress("a", 4)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                t = threading.Thread(target=hit)
                t.start()
                assert started.wait(10)
                drain = server.shutdown()
                assert drain == {"clean": 0, "forced": 1}
        finally:
            release.set()
        t.join(30)
        client.close()
        assert errors  # the killed client saw a connection error

    def test_shutdown_idempotent(self, service):
        server = _server(service)
        first = server.shutdown()
        second = server.shutdown()
        assert first == second


class TestFaultPoints:
    def test_net_accept_fault_sheds_connection(self, service, payload):
        with _server(service) as server:
            host, port = server.address
            with faults.inject(faults.NET_ACCEPT, nth=1):
                sock = socket.create_connection((host, port), timeout=5)
                assert _wait_closed(sock)
                sock.close()
            # The server survives: the next connection works.
            with RecoilClient(host, port, timeout_s=30) as client:
                assert np.array_equal(client.decompress("a", 4), payload)
        snap = server.metrics.snapshot()
        assert snap["transport_errors"] >= 1

    @pytest.mark.parametrize(
        "point", [faults.NET_READ, faults.NET_WRITE]
    )
    def test_net_io_fault_kills_one_connection(
        self, service, payload, point
    ):
        with _server(service) as server:
            host, port = server.address
            with faults.inject(point, nth=1) as rule:
                client = RecoilClient(host, port, timeout_s=30)
                with pytest.raises((OSError, ProtocolError)):
                    client.decompress("a", 4)
                assert rule.fires == 1
                # The client reconnects; the retry is bit-identical.
                assert np.array_equal(client.decompress("a", 4), payload)
                client.close()
        # After the with block: the server has drained.  It counts a
        # request ok only after sending the last frame, so the client
        # can hold the whole reply before the counter moves.
        snap = server.metrics.snapshot()
        assert snap["transport_errors"] >= 1
        assert snap["requests"]["ok"] == 1

    def test_net_stall_injects_lateness_not_corruption(
        self, service, payload
    ):
        with _server(service, stall_inject_s=0.4) as server:
            host, port = server.address
            with RecoilClient(host, port, timeout_s=30) as client:
                with faults.inject(faults.NET_STALL, nth=1) as rule:
                    t0 = time.monotonic()
                    out = client.decompress("a", 4)
                    elapsed = time.monotonic() - t0
                assert rule.fires == 1
            assert np.array_equal(out, payload)
            assert elapsed >= 0.4
        snap = server.metrics.snapshot()
        assert snap["stalls_injected"] == 1


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestChaosStorm:
    """An open-loop storm of 16+ clients — including kill -9 and
    slow-reader personas — against the default server, with faults
    armed at four ``net.*`` points plus ``kernel.exec``.  Every
    surviving response is verified bit-identical by the load
    generator; afterwards nothing may be leaked."""

    def test_storm_survives_bit_identical(self):
        from repro.serve.loadgen import run_load_bench

        fds_before = _open_fds()
        result = run_load_bench(
            symbols=12_000,
            num_assets=2,
            num_splits=SPLITS,
            rate_hz=60.0,
            duration_s=0.8,
            faults=(
                "net.accept:p=0.05,net.read:p=0.05,net.write:p=0.05,"
                "net.stall:p=0.1,kernel.exec:nth=2"
            ),
            seed=5,
            request_timeout_s=30.0,
        )
        for label in ("clean", "faulted"):
            run = result[label]
            assert run["offered"]["requests"] >= 16
            assert run["mismatches"] == 0
            assert run["ok"] > 0
            assert "unfinished" not in run["outcomes"]
        fired = sum(r["fires"] for r in result["faults"]["rules"])
        assert fired > 0
        net = result["network_metrics"]
        assert net["connections"]["active"] == 0
        assert (
            net["connections"]["opened"] == net["connections"]["closed"]
        )
        # Every connection ended by itself; none needed a hard close.
        assert net["drain"]["forced"] == 0
        # No leaked sockets (small slack for interpreter-internal fds).
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and _open_fds() > fds_before:
            time.sleep(0.05)
        assert _open_fds() <= fds_before + 2


class TestKilledClients:
    def test_rst_mid_response_does_not_crash(self, service, payload):
        import struct as _struct

        with _server(service) as server:
            host, port = server.address
            for _ in range(3):
                sock = socket.create_connection((host, port), timeout=5)
                sock.sendall(protocol.encode_decode_request("a", 4))
                with contextlib.suppress(OSError):
                    sock.recv(128)
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    _struct.pack("ii", 1, 0),
                )
                sock.close()  # RST: the closest thing to kill -9
            # The server still serves correct bytes afterwards.
            with RecoilClient(host, port, timeout_s=30) as client:
                assert np.array_equal(client.decompress("a", 4), payload)
        # After the with block: the server has drained.  It counts a
        # request ok only after sending the last frame, so the client
        # can hold the whole reply before the counter moves.
        snap = server.metrics.snapshot()
        assert snap["requests"]["ok"] >= 1
