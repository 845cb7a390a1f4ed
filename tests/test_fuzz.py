"""Failure injection: corrupted inputs must fail *controlled*.

A rANS container decoder facing random corruption, on either kernel,
may either (a) raise a library error
(:class:`~repro.errors.ReproError`) or (b) decode to output that
differs from the original; the two kernels must agree on which, and
on the output.  The tANS multians decoder too fails with a
``ReproError`` or wrong output, never a builtin.  What no decoder may
do is hang, crash the interpreter, or silently return the *right*
data from wrong bytes when integrity checks could have caught it.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    RecoilCodec,
    parse_container,
    recoil_compress,
    recoil_shrink,
)
from repro.core.decoder import RecoilDecoder
from repro.core.encoder import RecoilEncoder
from repro.errors import (
    ContainerError,
    DecodeError,
    MetadataError,
    ModelError,
    ReproError,
)
from repro.rans.model import SymbolModel
from repro.tans import MultiansCodec, TansTable

from conftest import needs_compiled, running_on

@pytest.fixture(scope="module")
def codec(model11):
    return RecoilCodec(model11)


@pytest.fixture(scope="module")
def blob(codec, skewed_bytes):
    return codec.compress(skewed_bytes[:20_000], 16)


def _flip(blob: bytes, pos: int, mask: int = 0xFF) -> bytes:
    b = bytearray(blob)
    b[pos] ^= mask
    return bytes(b)


def _head_flips(blob: bytes, head: int, seed: int) -> bytes:
    """``blob`` with 1-3 seeded byte XORs below offset ``head``."""
    r = np.random.default_rng(seed)
    bad = bytearray(blob)
    for _ in range(int(r.integers(1, 4))):
        bad[int(r.integers(0, head))] ^= int(r.integers(1, 256))
    return bytes(bad)


def _decompress(codec, blob: bytes) -> np.ndarray:
    """``codec.decompress`` through the fused decoder."""
    parsed = parse_container(blob, provider=codec.provider)
    return RecoilDecoder(codec.provider, codec.lanes).decode(
        parsed.words(blob), parsed.final_states, parsed.metadata
    ).symbols


class TestContainerFuzz:
    """Corrupt containers decoded on the numpy kernel; the subclass
    below repeats every case on the compiled one.  Both must fail
    typed: a :class:`ReproError`, never a builtin."""

    kernel = "numpy"

    @pytest.fixture(autouse=True)
    def _on_kernel(self):
        with running_on(self.kernel):
            yield

    @pytest.mark.parametrize("seed", range(24))
    def test_random_byte_corruption(self, codec, blob, skewed_bytes, seed):
        r = np.random.default_rng(seed)
        pos = int(r.integers(0, len(blob)))
        bad = _flip(blob, pos, int(r.integers(1, 256)))
        try:
            out = _decompress(codec, bad)
        except ReproError:
            return
        assert not np.array_equal(out, skewed_bytes[:20_000]) or bad == blob

    @pytest.mark.parametrize("cut", [1, 7, 64, 1000])
    def test_truncation(self, codec, blob, cut):
        with pytest.raises(ReproError):
            _decompress(codec, blob[:-cut])

    def test_empty_blob(self, codec):
        with pytest.raises(ReproError):
            _decompress(codec, b"")

    def test_garbage_blob(self, codec):
        r = np.random.default_rng(0)
        with pytest.raises(ReproError):
            _decompress(
                codec, bytes(r.integers(0, 256, 500, dtype=np.uint8))
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_shrink_of_corrupt_blob(self, blob, seed):
        r = np.random.default_rng(100 + seed)
        pos = int(r.integers(0, min(len(blob), 400)))
        bad = _flip(blob, pos)
        try:
            small = recoil_shrink(bad, 4)
            parse_container(small, require_model=False)
        except ReproError:
            pass

    @pytest.mark.parametrize("seed", range(16))
    def test_head_corruption(self, codec, blob, seed):
        """1-3 XORed bytes inside the header, model and metadata
        (offsets below ``payload_offset``), where prefix cuts change
        no byte: every case decodes or raises a :class:`ReproError`."""
        head = parse_container(blob).payload_offset
        try:
            _decompress(codec, _head_flips(blob, head, 1000 + seed))
        except ReproError:
            pass

    def test_header_field_corruption_each_byte(self, codec, blob,
                                               skewed_bytes):
        """Flip every byte of the fixed header individually."""
        for pos in range(12):
            bad = _flip(blob, pos)
            try:
                out = _decompress(codec, bad)
            except ReproError:
                continue
            assert not np.array_equal(out, skewed_bytes[:20_000])


class TestZeroMetadataLanes:
    """A metadata section declaring 0 lanes is a typed error at every
    entry point that parses it, not a builtin ``ZeroDivisionError``
    from sizing its entries."""

    @pytest.fixture(scope="class")
    def blob(self, skewed_bytes, model11):
        """A 3,000-symbol, 8-split container, its metadata ``lanes``
        (one uvarint byte) set to 0."""
        blob = RecoilCodec(model11).compress(skewed_bytes[:3_000], 8)
        bad = bytearray(blob)
        bad[parse_container(blob).metadata_offset] = 0
        return bytes(bad)

    @pytest.mark.parametrize(
        "entry",
        ["parse_container", "recoil_shrink", "recoil_decompress",
         "put_container"],
    )
    def test_container_entry_points(self, blob, entry):
        from repro.core import recoil_decompress
        from repro.serve import AssetStore

        call = {
            "parse_container": parse_container,
            "recoil_shrink": lambda b: recoil_shrink(b, 4),
            "recoil_decompress": lambda b: recoil_decompress(b, 4),
            "put_container": lambda b: AssetStore().put_container("x", b),
        }[entry]
        with pytest.raises(MetadataError, match="0 lanes"):
            call(blob)

    def test_parse_sidecar(self, skewed_bytes, model11):
        from repro.core.encoder import RecoilEncoder
        from repro.core.sidecar import (
            HEADER_BYTES,
            build_sidecar,
            parse_sidecar,
        )

        enc = RecoilEncoder(model11).encode(skewed_bytes[:3_000], 8)
        bad = bytearray(build_sidecar(enc.metadata, enc.words))
        bad[HEADER_BYTES] = 0
        with pytest.raises(ContainerError, match="0 lanes"):
            parse_sidecar(bytes(bad), enc.words)


@needs_compiled
class TestContainerFuzzCompiled(TestContainerFuzz):
    """Every :class:`TestContainerFuzz` case on the compiled kernel."""

    kernel = "compiled"


#: corrupted containers per differential chunk, and the capacities
#: every container the store accepts is decoded at.
DIFF_CONTAINERS = 40
DIFF_CAPACITIES = (1, 4, 64)


def differential_chunk(first_seed: int, count: int) -> dict:
    """Decode corrupted containers on every kernel; they must agree.

    Container ``seed`` gets 1-3 random byte flips, half of them inside
    the header and metadata.  One that ``put_container`` accepts is
    decoded on the serve path (shrink, then :func:`fused_run_multi`)
    at every capacity in :data:`DIFF_CAPACITIES`, on the numpy kernel
    and on both bodies of the compiled walk (SIMD and scalar): all
    must raise a :class:`ReproError`, or all return identical symbols
    and :class:`EngineStats`.  Runs in a subprocess of the test, so a
    crash fails one chunk.
    """
    from repro.parallel.fused import StreamSegment, fused_run_multi
    from repro.serve import AssetStore

    r = np.random.default_rng(1)
    data = np.minimum(np.floor(r.exponential(12.0, 8_000)), 255)
    blob = RecoilCodec(
        SymbolModel.from_data(data.astype(np.uint8), 11, 256)
    ).compress(data.astype(np.uint8), 64)
    tally = {"rejected": 0, "typed": 0, "identical": 0}

    def decode(asset, columns, kernel):
        try:
            with running_on(kernel):
                res = fused_run_multi(
                    asset.provider, asset.lanes,
                    [StreamSegment(asset.words, columns, asset.num_symbols)],
                    out_dtype=asset.out_dtype,
                )
        except ReproError as exc:
            return type(exc)
        s = res.stats
        return res.out, (s.iterations, s.symbols_decoded, s.words_read,
                         s.tasks, s.max_task_iterations)

    for seed in range(first_seed, first_seed + count):
        hi = len(blob) if seed % 2 else 600
        try:
            asset = AssetStore().put_container(
                "x", _head_flips(blob, hi, seed)
            )
        except ReproError:
            tally["rejected"] += 1
            continue
        for cap in DIFF_CAPACITIES:
            columns = asset.shrink(cap).columns
            a = decode(asset, columns, "numpy")
            for kernel in ("compiled", "compiled_scalar"):
                b = decode(asset, columns, kernel)
                if isinstance(a, type) and isinstance(b, type):
                    tally["typed"] += 1
                    continue
                assert not isinstance(a, type) and not isinstance(b, type), (
                    f"seed {seed} capacity {cap}: numpy -> {a!r:.80}, "
                    f"{kernel} -> {b!r:.80}"
                )
                assert np.array_equal(a[0], b[0]), f"seed {seed} cap {cap}"
                assert a[1] == b[1], f"seed {seed} cap {cap}: {a[1]} {b[1]}"
                tally["identical"] += 1
    return tally


@needs_compiled
@pytest.mark.parametrize("chunk", range(4))
def test_kernels_agree_on_corrupt_containers(chunk):
    here = pathlib.Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, "
        f"{str(here)!r}]; import test_fuzz; "
        f"print(test_fuzz.differential_chunk("
        f"{chunk * DIFF_CONTAINERS}, {DIFF_CONTAINERS}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"exit status {proc.returncode} (negative: killed by that "
        f"signal)\n{proc.stdout[-2000:]}{proc.stderr[-4000:]}"
    )


#: seeded cases per parser in :class:`TestHeadFuzz`.
HEAD_CASES = 100


class TestHeadFuzz:
    """1-3 XORed bytes in everything but the payload of the parsers
    beside ``parse_container`` (whose head fuzz is
    :meth:`TestContainerFuzz.test_head_corruption`): sidecars, the
    Conventional and multians containers and the disk records.  The
    prefix tests cannot reach a flipped count or width; every case
    must parse and decode, or raise a :class:`ReproError`."""

    @staticmethod
    def _cases(blob, head, call):
        for seed in range(HEAD_CASES):
            try:
                call(_head_flips(blob, head, seed))
            except ReproError:
                pass

    def test_sidecar(self, skewed_bytes, provider11, kernel_backend):
        from repro.core import build_sidecar, parse_sidecar, shrink_sidecar

        enc = RecoilEncoder(provider11).encode(skewed_bytes[:5_000], 8)
        decoder = RecoilDecoder(provider11)

        def call(bad):
            shrink_sidecar(bad, 2)
            decoder.decode(
                enc.words, enc.final_states, parse_sidecar(bad, enc.words)
            )

        sidecar = build_sidecar(enc.metadata, enc.words)
        self._cases(sidecar, len(sidecar), call)

    def test_conventional(self, skewed_bytes, provider11, kernel_backend):
        from repro.baselines.conventional import ConventionalCodec

        codec = ConventionalCodec(provider11)
        blob = codec.compress(skewed_bytes[:5_000], 4)
        head = len(blob) - 2 * len(codec.parse_container(blob).words)
        self._cases(blob, head, codec.decompress)

    def test_multians(self, skewed_bytes):
        codec = MultiansCodec(
            TansTable.from_data(skewed_bytes, 11, alphabet_size=256)
        )
        blob = codec.compress(skewed_bytes[:5_000])
        head = len(blob) - len(codec.parse(blob)[0].payload)
        self._cases(
            blob, head, lambda bad: codec.decompress(bad, num_threads=8)
        )

    def test_disk_record(self, blob):
        from repro.serve.disk import decode_record, encode_record

        record = encode_record("asset-1", blob)
        head = len(record) - len(blob) - 4  # the CRC-32 footer
        self._cases(record, head, lambda bad: decode_record(bad, "rec"))


class TestMetadataErrorType:
    """``parse_metadata`` raises one error type.  Every prefix of a
    metadata section, and 1-3 XORed bytes in its first 64 bytes,
    either parses or raises :class:`MetadataError`, wherever the cut
    or the flip lands: a varint, a difference series, a width field or
    an entry record."""

    @pytest.mark.parametrize("splits", [8, 64, 256])
    def test_prefixes_and_head_flips(self, splits):
        from repro.core.serialization import parse_metadata
        from repro.data import text_surrogate

        data = text_surrogate(60_000, target_entropy=5.29, seed=11)
        blob = recoil_compress(data, num_splits=splits)
        parsed = parse_container(blob)
        section = blob[parsed.metadata_offset : parsed.payload_offset]
        cases = [section[:n] for n in range(len(section))]
        cases += [_head_flips(section, 64, seed) for seed in range(500)]
        for case in cases:
            try:
                parse_metadata(case)
            except MetadataError:
                pass


class TestMultiansFuzz:
    """Corrupt multians containers fail typed: a :class:`ReproError`,
    never a builtin."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_corruption(self, skewed_bytes, seed):
        table = TansTable.from_data(skewed_bytes, 11, alphabet_size=256)
        mc = MultiansCodec(table)
        blob = mc.compress(skewed_bytes[:5_000])
        r = np.random.default_rng(seed)
        bad = _flip(blob, int(r.integers(0, len(blob))))
        try:
            out, _ = mc.decompress(bad, num_threads=8)
        except ReproError:
            return
        # tANS self-synchronizes, so payload corruption yields locally
        # wrong output rather than an error — that is expected.
        assert len(out) == 5_000

    @pytest.mark.parametrize("seed", range(8))
    def test_truncation(self, skewed_bytes, seed):
        """A cut anywhere — header, table dump or payload — is refused
        typed, at 11 and 12 table bits and 8 and 64 threads."""
        table = TansTable.from_data(
            skewed_bytes, 11 + seed % 2, alphabet_size=256
        )
        mc = MultiansCodec(table)
        blob = mc.compress(skewed_bytes[:5_000])
        cut = int(np.random.default_rng(seed).integers(0, len(blob)))
        with pytest.raises(ReproError):
            mc.decompress(blob[:cut], num_threads=8 if seed < 4 else 64)

    @pytest.mark.parametrize("threads", [1, 8, 64])
    def test_inflated_symbol_count(self, skewed_bytes, threads):
        """A valid container whose ``num_symbols`` is rewritten to
        10**12 runs out of payload, a typed error, at every thread
        count: no allocation is sized by the declared count."""
        from repro.bitio.varint import decode_uvarint, encode_uvarint

        mc = MultiansCodec(
            TansTable.from_data(skewed_bytes, 11, alphabet_size=256)
        )
        blob = mc.compress(skewed_bytes[:5_000])
        _, end = decode_uvarint(blob, 5)  # the count follows magic+version
        bad = blob[:5] + encode_uvarint(10**12) + blob[end:]
        with pytest.raises(DecodeError, match="exhausted"):
            mc.decompress(bad, num_threads=threads)


#: the ONLY errors the ingest surfaces may raise on malformed bytes.
STRICT = (ContainerError, MetadataError)


class TestIngestStrictErrorSurface:
    """`put_container` and `recoil info` face untrusted bytes directly:
    they must raise ContainerError/MetadataError, never a builtin
    (IndexError, struct.error, ValueError) leaking from a parser."""

    @pytest.mark.parametrize("cut", [1, 2, 5, 9, 17, 33, 100, 999])
    def test_truncation_through_put_container(self, blob, cut):
        from repro.serve import AssetStore

        store = AssetStore()
        with pytest.raises(STRICT):
            store.put_container("x", blob[: len(blob) - cut])

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 6, 7, 11])
    def test_tiny_blobs_through_put_container(self, blob, length):
        from repro.serve import AssetStore

        store = AssetStore()
        with pytest.raises(STRICT):
            store.put_container("x", blob[:length])

    def test_every_prefix_fails_typed(self, codec, skewed_bytes):
        """Parsing or ingesting any truncation of a valid container —
        the header included — raises a strict error, never a builtin
        or another error class (a cut inside the metadata section
        exhausts its bit reader)."""
        from repro.serve import AssetStore

        small = codec.compress(skewed_bytes[:2_000], 8)
        store = AssetStore()
        for n in range(len(small)):
            with pytest.raises(STRICT):
                parse_container(small[:n])
            with pytest.raises(STRICT):
                store.put_container("x", small[:n])

    @pytest.mark.parametrize("seed", range(48))
    def test_bit_flips_through_put_container(self, blob, seed):
        from repro.serve import AssetStore

        r = np.random.default_rng(1000 + seed)
        # Bias half the flips into the header/metadata region where
        # the parsers live; payload flips parse fine by design.
        hi = len(blob) if seed % 2 else min(len(blob), 600)
        bad = _flip(blob, int(r.integers(0, hi)), int(r.integers(1, 256)))
        store = AssetStore()
        try:
            store.put_container("x", bad)
        except STRICT:
            pass  # typed rejection is the contract

    @pytest.mark.parametrize("seed", range(24))
    def test_bit_flips_through_parse_container(self, blob, seed):
        r = np.random.default_rng(2000 + seed)
        bad = _flip(
            blob,
            int(r.integers(0, min(len(blob), 600))),
            int(r.integers(1, 256)),
        )
        try:
            parse_container(bad)
        except STRICT:
            pass

    def test_implausible_alphabet_rejected_typed(self):
        # A model blob claiming a 2^40-symbol alphabet must refuse
        # with a typed error, not allocate its way to MemoryError.
        from repro.bitio.varint import encode_uvarint
        from repro.core.container import MAGIC, VERSION
        from repro.rans.model import SymbolModel

        with pytest.raises(ModelError):
            SymbolModel.from_bytes(
                encode_uvarint(11) + encode_uvarint(1 << 40)
            )
        # Through the container surface the same corruption converts
        # to the strict ingest error type.
        lanes = 4
        evil = (
            MAGIC
            + bytes([VERSION, 0x01, 11])  # flags: embedded model
            + encode_uvarint(lanes)
            + encode_uvarint(100)  # num_symbols
            + encode_uvarint(50)  # num_words
            + b"\0" * (4 * lanes)  # final states
            + encode_uvarint(11)  # model quant_bits
            + encode_uvarint(1 << 40)  # model alphabet: absurd
        )
        with pytest.raises(ContainerError, match="model"):
            parse_container(evil)

    def test_zero_lane_container_rejected_typed(self, blob):
        """A well-formed container claiming 0 lanes would make every
        decoder divide by zero (the C walk by a hardware trap that
        kills the server): ingest must refuse it typed."""
        from repro.bitio.varint import encode_uvarint
        from repro.core.container import MAGIC, VERSION
        from repro.serve import AssetStore

        p = parse_container(blob)
        geometry = encode_uvarint(p.num_symbols) + encode_uvarint(
            p.num_words
        )
        evil = (
            MAGIC
            + bytes([VERSION, blob[5], p.quant_bits])
            + encode_uvarint(0)  # lanes, hence no final states
            + geometry
            + p.provider.models[0].to_bytes()
            + encode_uvarint(0) + geometry + encode_uvarint(0)  # metadata
            + blob[p.payload_offset:]
        )
        with pytest.raises(STRICT, match="lanes"):
            parse_container(evil)
        with pytest.raises(STRICT, match="lanes"):
            AssetStore().put_container("x", evil)

    def test_implausible_entry_count_rejected_typed(self):
        from repro.bitio.varint import encode_uvarint
        from repro.core.serialization import parse_metadata

        bogus = (
            encode_uvarint(32)  # lanes
            + encode_uvarint(1000)  # num_symbols
            + encode_uvarint(100)  # num_words
            + encode_uvarint(1 << 50)  # entry count >> section size
        )
        with pytest.raises(MetadataError, match="implausible"):
            parse_metadata(bogus)

    @pytest.mark.parametrize("cut", [1, 8, 64])
    def test_cli_info_fails_controlled(self, blob, cut, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.rcl"
        bad.write_bytes(blob[: len(blob) - cut])
        rc = main(["info", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_info_garbage_file(self, tmp_path, capsys):
        from repro.cli import main

        r = np.random.default_rng(3)
        bad = tmp_path / "junk.rcl"
        bad.write_bytes(bytes(r.integers(0, 256, 800, dtype=np.uint8)))
        rc = main(["info", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Wire-protocol fuzzing (DESIGN.md §16).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def net_server():
    """One hardened server shared by every fuzz case — surviving the
    whole gauntlet on a single instance IS the test."""
    import repro.data as data_mod
    from repro.serve import NetConfig, NetServer, RecoilService

    payload = data_mod.text_surrogate(10_000, target_entropy=5.29, seed=11)
    with RecoilService() as service:
        service.put_asset("a", payload, num_splits=16)
        config = NetConfig(
            port=0, idle_timeout_s=5.0, read_timeout_s=2.0
        )
        with NetServer(service, config) as server:
            yield server, payload


def _assert_server_healthy(server, payload) -> None:
    """A fresh, well-formed request must succeed bit-identically."""
    from repro.serve import RecoilClient

    host, port = server.address
    with RecoilClient(host, port, timeout_s=30) as client:
        out = client.decompress("a", 4)
    assert np.array_equal(out, payload)


class TestWireProtocolFuzz:
    """Hostile bytes at the socket: every case must end in a typed
    ``ST_ERROR`` frame or a clean close — never a crash, never a hang
    — and the server must then serve a fresh well-formed request
    bit-identically."""

    def _open(self, server):
        import socket

        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        return sock

    def _expect_error_or_close(self, sock) -> None:
        from repro.serve import protocol

        buf = bytearray()
        try:
            while len(buf) < protocol.HEADER_BYTES:
                chunk = sock.recv(protocol.HEADER_BYTES - len(buf))
                if not chunk:
                    return  # clean close: acceptable
                buf += chunk
            ftype, length = protocol.parse_header(
                bytes(buf), protocol.RESPONSE_TYPES
            )
            assert ftype == protocol.ST_ERROR
            body = bytearray()
            while len(body) < length:
                chunk = sock.recv(length - len(body))
                if not chunk:
                    return
                body += chunk
            exc = protocol.parse_error(bytes(body))
            from repro.errors import ProtocolError

            assert isinstance(exc, ProtocolError)
        except (TimeoutError, ConnectionError, OSError):
            return  # reset: also a controlled outcome
        finally:
            sock.close()

    def test_garbage_bytes(self, net_server):
        server, payload = net_server
        r = np.random.default_rng(0)
        for seed in range(8):
            sock = self._open(server)
            sock.sendall(bytes(r.integers(0, 256, 64, dtype=np.uint8)))
            self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_corrupt_container_put_then_decode(self, net_server):
        """A hostile upload that parses (OP_PUT succeeds) but whose
        final states are corrupt: the OP_DECODE walking them must be
        answered with a typed error frame, and the server keeps
        serving."""
        from repro.bitio.varint import encode_uvarint
        from repro.core import recoil_compress
        from repro.errors import DecodeError
        from repro.serve import RecoilClient

        server, payload = net_server
        blob = bytearray(recoil_compress(payload, num_splits=16))
        parsed = parse_container(bytes(blob))
        states_at = 7 + sum(
            len(encode_uvarint(v))
            for v in (parsed.lanes, parsed.num_symbols, parsed.num_words)
        )
        blob[states_at] ^= 0x5A
        host, port = server.address
        with RecoilClient(host, port, timeout_s=30) as client:
            client.put_container("hostile", bytes(blob))
            for _ in range(2):
                with pytest.raises(DecodeError):
                    client.decompress("hostile", 1)
        _assert_server_healthy(server, payload)

    def test_bad_magic(self, net_server):
        server, payload = net_server
        sock = self._open(server)
        sock.sendall(b"XX\x01\x00\x00\x00\x00")
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_unknown_frame_type(self, net_server):
        from repro.serve import protocol

        server, payload = net_server
        sock = self._open(server)
        sock.sendall(protocol.MAGIC + b"\x7f\x00\x00\x00\x00")
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_response_type_as_request(self, net_server):
        from repro.serve import protocol

        server, payload = net_server
        sock = self._open(server)
        sock.sendall(protocol.encode_frame(protocol.ST_OK, b"sneaky"))
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_oversized_declared_length(self, net_server):
        """A 4 GiB declared body must be rejected from the header
        alone — before any allocation, without reading the body."""
        import struct

        from repro.serve import protocol

        server, payload = net_server
        sock = self._open(server)
        sock.sendall(
            protocol.MAGIC
            + bytes([protocol.OP_PING])
            + struct.pack(">I", 0xFFFF_FFFF)
        )
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    @pytest.mark.parametrize("cut", [1, 3, 6])
    def test_truncated_header_then_disconnect(self, net_server, cut):
        from repro.serve import protocol

        server, payload = net_server
        frame = protocol.encode_decode_request("a", 4)
        sock = self._open(server)
        sock.sendall(frame[:cut])
        sock.close()  # mid-header disconnect
        _assert_server_healthy(server, payload)

    def test_midframe_disconnect(self, net_server):
        from repro.serve import protocol

        server, payload = net_server
        frame = protocol.encode_decode_request("a", 4)
        sock = self._open(server)
        sock.sendall(frame[:-3])  # declared body longer than sent
        sock.close()
        _assert_server_healthy(server, payload)

    @pytest.mark.parametrize("seed", range(12))
    def test_bit_flipped_header(self, net_server, seed):
        from repro.serve import protocol

        server, payload = net_server
        frame = bytearray(protocol.encode_decode_request("a", 4))
        r = np.random.default_rng(seed)
        pos = int(r.integers(0, protocol.HEADER_BYTES))
        frame[pos] ^= int(r.integers(1, 256))
        sock = self._open(server)
        sock.sendall(bytes(frame))
        # A flipped length byte may leave the server waiting for more
        # body than we sent — close our end rather than waiting out
        # its read deadline; the server must survive either way.
        sock.close()
        _assert_server_healthy(server, payload)

    def test_malformed_body_typed_error(self, net_server):
        """Valid header, garbage body: the cursor must reject it with
        a typed ProtocolError frame."""
        from repro.serve import protocol

        server, payload = net_server
        sock = self._open(server)
        sock.sendall(
            protocol.encode_frame(protocol.OP_DECODE, b"\x00")
        )
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_zero_capacity_rejected(self, net_server):
        from repro.serve import protocol

        server, payload = net_server
        name = b"\x00\x01a"
        body = name + (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
        sock = self._open(server)
        sock.sendall(protocol.encode_frame(protocol.OP_DECODE, body))
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    HOSTILE_NAMES = [
        b"",
        b".",
        b"..",
        b"../../etc/passwd",
        b"a/b",
        b"a\\b",
        b"a\x00b",
        b"a\x1fb",
        b"a\x7fb",
        b"x" * 1025,
        b"\xff\xfe",  # not UTF-8
    ]

    @pytest.mark.parametrize("raw", HOSTILE_NAMES)
    def test_hostile_asset_name_via_put(self, net_server, raw):
        """Path traversal / control chars / oversize / non-UTF-8 names
        through OP_PUT: the honest client refuses to encode these, so
        hand-build the frame.  The server must answer with a typed
        error (never create a file outside the store) and keep
        serving."""
        from repro.serve import protocol

        server, payload = net_server
        body = len(raw).to_bytes(2, "big") + raw + b"fake-container"
        sock = self._open(server)
        sock.sendall(protocol.encode_frame(protocol.OP_PUT, body))
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_hostile_name_via_serve_request(self, net_server):
        from repro.serve import protocol

        server, payload = net_server
        raw = b"../steal"
        body = (
            len(raw).to_bytes(2, "big") + raw + (4).to_bytes(4, "big")
        )
        sock = self._open(server)
        sock.sendall(protocol.encode_frame(protocol.OP_SERVE, body))
        self._expect_error_or_close(sock)
        _assert_server_healthy(server, payload)

    def test_fuzz_storm_then_healthy(self, net_server):
        """A burst of random hostile connections in a row; the server
        must stay up and bit-exact throughout."""
        server, payload = net_server
        r = np.random.default_rng(99)
        for _ in range(24):
            sock = self._open(server)
            n = int(r.integers(1, 40))
            sock.sendall(bytes(r.integers(0, 256, n, dtype=np.uint8)))
            if r.integers(0, 2):
                self._expect_error_or_close(sock)
            else:
                sock.close()  # abandon mid-conversation
        _assert_server_healthy(server, payload)
        snap = server.metrics.snapshot()
        assert snap["protocol_errors"] > 0
