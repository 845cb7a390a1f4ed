"""Durable tiered asset store: crash-safe persistence, quarantine,
cold-start recovery (repro.serve.disk + the tiered AssetStore).

The crash-consistency property under test everywhere: a restarted
store NEVER serves a byte that fails its checksum — every asset is
either recovered bit-identical or quarantined with a typed
:class:`~repro.errors.IntegrityError`, and the store keeps serving
the survivors.
"""

from __future__ import annotations

import os
import signal
import stat as stat_mod
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import faults
from repro.core.api import recoil_compress, recoil_decompress
from repro.data import text_surrogate
from repro.errors import IntegrityError, ProtocolError, ServeError
from repro.serve import AssetStore, DiskStore, RecoilService, ServiceConfig
from repro.serve.disk import (
    RECORD_SUFFIX,
    RecoveryReport,
    decode_record,
    encode_record,
)
from repro.serve.protocol import asset_name_problem


@pytest.fixture(scope="module")
def payloads() -> dict[str, np.ndarray]:
    return {
        f"asset{i}": text_surrogate(
            4_000, target_entropy=5.29, seed=21 + i
        )
        for i in range(3)
    }


@pytest.fixture(scope="module")
def blobs(payloads) -> dict[str, bytes]:
    return {
        name: recoil_compress(data, num_splits=8, quant_bits=11)
        for name, data in payloads.items()
    }


# ---------------------------------------------------------------------------
# Record format: self-verifying container-on-disk framing
# ---------------------------------------------------------------------------


class TestRecordFormat:
    def test_roundtrip(self):
        record = encode_record("hero", b"\x00\x01payload\xff")
        assert decode_record(record, "rec") == ("hero", b"\x00\x01payload\xff")

    def test_empty_blob_roundtrips(self):
        assert decode_record(encode_record("e", b""), "rec") == ("e", b"")

    def test_every_truncation_length_raises_typed(self):
        """Sweep EVERY prefix of the record — magic, name length, name,
        blob length, blob, and footer regions alike must all fail with
        IntegrityError, never return bytes, never raise untyped."""
        record = encode_record("trunc", b"x" * 64)
        for cut in range(len(record)):
            with pytest.raises(IntegrityError):
                decode_record(record[:cut], "rec")

    def test_trailing_garbage_raises(self):
        record = encode_record("t", b"abc")
        with pytest.raises(IntegrityError):
            decode_record(record + b"\x00", "rec")

    def test_single_bit_flips_always_caught(self):
        """CRC-32 detects every single-bit error: seeded flips across
        the whole record (header, name, blob, footer) must each raise
        IntegrityError — wrong bytes must never decode 'successfully'."""
        record = encode_record("fuzz", bytes(range(256)) * 3)
        rng = np.random.default_rng(7)
        positions = rng.integers(0, len(record), size=25)
        bits = rng.integers(0, 8, size=25)
        for pos, bit in zip(positions, bits):
            bad = bytearray(record)
            bad[int(pos)] ^= 1 << int(bit)
            with pytest.raises(IntegrityError):
                decode_record(bytes(bad), "rec")


# ---------------------------------------------------------------------------
# DiskStore: durability, recovery, quarantine
# ---------------------------------------------------------------------------


class TestDiskStore:
    def test_put_read_survives_reopen(self, tmp_path, blobs):
        store = DiskStore(tmp_path / "s")
        for name, blob in blobs.items():
            store.put(name, blob)
        reopened = DiskStore(tmp_path / "s")
        assert reopened.names() == sorted(blobs)
        for name, blob in blobs.items():
            assert reopened.read(name) == blob  # bit-identical
        rep = reopened.last_recovery
        assert isinstance(rep, RecoveryReport)
        assert sorted(rep.recovered) == sorted(blobs)
        assert rep.quarantined == [] and rep.missing == []

    def test_unknown_asset_is_typed(self, tmp_path):
        store = DiskStore(tmp_path / "s")
        with pytest.raises(ServeError):
            store.read("ghost")
        with pytest.raises(ServeError):
            store.stat("ghost")

    def test_tmp_leftover_quarantined_as_partial(self, tmp_path, blobs):
        store = DiskStore(tmp_path / "s")
        store.put("good", blobs["asset0"])
        # Simulate a crash mid-put: a .part file the rename never hit.
        (tmp_path / "s" / "tmp" / "dead.1.part").write_bytes(b"half a rec")
        reopened = DiskStore(tmp_path / "s")
        rep = reopened.last_recovery
        assert rep.recovered == ["good"]
        assert len(rep.quarantined) == 1
        assert "partial" in rep.quarantined[0]["reason"]
        assert not list((tmp_path / "s" / "tmp").iterdir())
        assert list((tmp_path / "s" / "quarantine").glob("dead*"))

    @pytest.mark.parametrize("region", ["header", "name", "blob", "footer"])
    def test_truncated_record_quarantined_survivors_served(
        self, tmp_path, blobs, region
    ):
        """Truncate a record inside each region; reopening must
        quarantine exactly that record and keep serving the rest."""
        store = DiskStore(tmp_path / "s")
        store.put("victim", blobs["asset0"])
        store.put("survivor", blobs["asset1"])
        path = store.path_for("victim")
        record = path.read_bytes()
        name_len = len(b"victim")
        cut = {
            "header": 3,                      # inside the magic
            "name": 6 + name_len - 2,         # inside the name bytes
            "blob": len(record) // 2,         # inside the payload
            "footer": len(record) - 2,        # inside the CRC
        }[region]
        path.write_bytes(record[:cut])

        reopened = DiskStore(tmp_path / "s")
        rep = reopened.last_recovery
        assert rep.recovered == ["survivor"]
        assert len(rep.quarantined) == 1
        assert "victim" in rep.quarantined[0]["file"]
        assert reopened.read("survivor") == blobs["asset1"]
        assert "victim" not in reopened
        # Quarantine preserves the evidence; nothing is deleted.
        assert list((tmp_path / "s" / "quarantine").glob("victim*"))

    def test_bit_flip_fuzz_never_serves_wrong_bytes(self, tmp_path, blobs):
        """Seeded single-bit flips in stored records: every corrupted
        record is quarantined at recovery, every intact one still reads
        bit-identically, and no read ever returns wrong bytes."""
        rng = np.random.default_rng(31)
        for trial in range(8):
            root = tmp_path / f"fuzz{trial}"
            store = DiskStore(root)
            for name, blob in blobs.items():
                store.put(name, blob)
            victim = f"asset{trial % len(blobs)}"
            path = store.path_for(victim)
            data = bytearray(path.read_bytes())
            data[int(rng.integers(0, len(data)))] ^= 1 << int(
                rng.integers(0, 8)
            )
            path.write_bytes(bytes(data))

            reopened = DiskStore(root)
            rep = reopened.last_recovery
            assert victim not in rep.recovered
            assert len(rep.quarantined) == 1
            for name, blob in blobs.items():
                if name == victim:
                    with pytest.raises(ServeError):
                        reopened.read(name)
                else:
                    assert reopened.read(name) == blob

    def test_swapped_record_name_mismatch_quarantined(
        self, tmp_path, blobs
    ):
        """A record whose embedded name disagrees with its filename
        (e.g. files swapped by an operator) must not serve under the
        wrong name."""
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        store.put("b", blobs["asset1"])
        pa, pb = store.path_for("a"), store.path_for("b")
        ra, rb = pa.read_bytes(), pb.read_bytes()
        pa.write_bytes(rb)
        pb.write_bytes(ra)
        reopened = DiskStore(tmp_path / "s")
        assert reopened.last_recovery.recovered == []
        assert len(reopened.last_recovery.quarantined) == 2

    def test_manifest_corruption_rebuilt_from_records(
        self, tmp_path, blobs
    ):
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        for garbage in (b"", b"{not json", b'{"version": 99}'):
            store.manifest_path.write_bytes(garbage)
            reopened = DiskStore(tmp_path / "s")
            rep = reopened.last_recovery
            assert rep.recovered == ["a"]
            assert rep.manifest_rebuilt
            assert reopened.read("a") == blobs["asset0"]
            store = reopened

    def test_missing_promised_file_reported(self, tmp_path, blobs):
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        store.put("gone", blobs["asset1"])
        os.unlink(store.path_for("gone"))
        reopened = DiskStore(tmp_path / "s")
        rep = reopened.last_recovery
        assert rep.recovered == ["a"]
        assert rep.missing == ["gone"]
        assert rep.quarantined == []

    def test_scrub_finds_rot_and_exits_service(self, tmp_path, blobs):
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        store.put("b", blobs["asset1"])
        clean = store.scrub()
        assert sorted(clean["verified"]) == ["a", "b"]
        assert clean["quarantined"] == []
        # Rot a record AFTER recovery: only scrub can notice.
        path = store.path_for("a")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        dirty = store.scrub()
        assert dirty["verified"] == ["b"]
        assert len(dirty["quarantined"]) == 1
        assert "a" not in store

    def test_stat_reports_verification_verdict(self, tmp_path, blobs):
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        info = store.stat("a")
        assert info["verified"] and info["blob_bytes"] == len(
            blobs["asset0"]
        )


# ---------------------------------------------------------------------------
# Name validation at every boundary
# ---------------------------------------------------------------------------


class TestNameValidation:
    HOSTILE = [
        "",
        ".",
        "..",
        "../evil",
        "a/b",
        "a\\b",
        "a\x00b",
        "a\x1fb",
        "a\x7fb",
        "x" * 1025,
    ]

    @pytest.mark.parametrize("name", HOSTILE)
    def test_problem_reported(self, name):
        assert asset_name_problem(name) is not None

    @pytest.mark.parametrize(
        "name", ["ok", "with-dash_и.v2", "dotted.name", "x" * 1024]
    )
    def test_good_names_accepted(self, name):
        assert asset_name_problem(name) is None

    @pytest.mark.parametrize("name", HOSTILE)
    def test_disk_store_rejects(self, tmp_path, name):
        store = DiskStore(tmp_path / "s")
        with pytest.raises(ServeError):
            store.put(name, b"blob")
        assert not list((tmp_path / "s" / "assets").iterdir())

    @pytest.mark.parametrize("name", ["../evil", "a/b", ""])
    def test_asset_store_rejects_before_encode(self, name):
        store = AssetStore()
        with pytest.raises(ServeError):
            store.put(name, np.zeros(16, dtype=np.uint8))
        with pytest.raises(ServeError):
            store.put_container(name, b"blob")

    def test_wire_encoder_rejects(self):
        from repro.serve import protocol

        with pytest.raises(ProtocolError):
            protocol.encode_put_request("../evil", b"x")
        with pytest.raises(ProtocolError):
            protocol.encode_serve_request("a/b", 4)


# ---------------------------------------------------------------------------
# Tiered AssetStore: resident LRU over the durable tier
# ---------------------------------------------------------------------------


class TestTieredStore:
    def test_eviction_and_hydration_bit_identical(
        self, tmp_path, payloads, blobs
    ):
        budget = max(len(b) for b in blobs.values()) + 1  # holds ~1
        store = AssetStore(
            store_dir=tmp_path / "s", resident_bytes=budget
        )
        for name, blob in blobs.items():
            store.put_container(name, blob)
        m = store.metrics()
        assert m["evictions"] >= len(blobs) - 1
        assert m["resident_bytes"] <= budget
        # Touch everything: evicted assets hydrate from disk and the
        # rehydrated master must be byte-identical to what was put.
        for name, blob in blobs.items():
            assert store.get(name).blob == blob
        m = store.metrics()
        assert m["hydrations"] >= len(blobs) - 1
        assert set(store.names()) == set(blobs)
        assert len(store) == len(blobs)

    def test_resident_hit_moves_to_mru(self, tmp_path, blobs):
        sizes = sorted(len(b) for b in blobs.values())
        budget = sizes[-1] + sizes[-2] + 1  # holds two
        store = AssetStore(
            store_dir=tmp_path / "s", resident_bytes=budget
        )
        store.put_container("a", blobs["asset0"])
        store.put_container("b", blobs["asset1"])
        store.get("a")  # refresh: a is now MRU
        store.put_container("c", blobs["asset2"])  # should evict b
        hydr0 = store.hydrations
        store.get("a")
        assert store.hydrations == hydr0  # still resident
        store.get("b")
        assert store.hydrations == hydr0 + 1  # was evicted

    def test_memory_only_store_pins_everything(self, blobs):
        store = AssetStore(resident_bytes=1)  # no disk tier
        store.put_container("a", blobs["asset0"])
        store.put_container("b", blobs["asset1"])
        # Nothing can be evicted (no durable copy): both stay resident.
        assert store.get("a").pinned and store.get("b").pinned
        assert store.evictions == 0

    def test_decode_after_hydration_matches(
        self, tmp_path, payloads, blobs
    ):
        store = AssetStore(
            store_dir=tmp_path / "s",
            resident_bytes=max(len(b) for b in blobs.values()) + 1,
        )
        for name, blob in blobs.items():
            store.put_container(name, blob)
        for name, data in payloads.items():
            variant, _ = store.shrunk(name, 2)
            assert np.array_equal(recoil_decompress(variant.blob), data)

    def test_shrink_cache_byte_bound(self, tmp_path, blobs):
        from repro.serve import ShrinkCache

        store = AssetStore(store_dir=tmp_path / "s")
        store.put_container("a", blobs["asset0"])
        v1, _ = store.shrunk("a", 1)
        v2, _ = store.shrunk("a", 2)
        budget = max(len(v1.blob), len(v2.blob)) + 1  # holds exactly one
        cache = ShrinkCache(max_entries=64, max_bytes=budget)
        cache.put(("a", 1), v1)
        assert cache.bytes == len(v1.blob)
        cache.put(("a", 2), v2)  # over byte budget: evicts (a, 1)
        snap = cache.snapshot()
        assert snap["evictions"]["bytes"] == 1
        assert snap["evictions"]["capacity"] == 0
        assert snap["evictions"]["total"] == 1
        assert cache.get(("a", 1)) is None
        assert cache.get(("a", 2)) is v2
        assert snap["bytes"] == len(v2.blob)

    def test_shrink_cache_entry_cap_counted_separately(self, blobs):
        from repro.serve import ShrinkCache

        store = AssetStore()
        store.put_container("a", blobs["asset0"])
        v1, _ = store.shrunk("a", 1)
        v2, _ = store.shrunk("a", 2)
        cache = ShrinkCache(max_entries=1)
        cache.put(("a", 1), v1)
        cache.put(("a", 2), v2)
        snap = cache.snapshot()
        assert snap["evictions"] == {
            "total": 1, "capacity": 1, "bytes": 0,
        }
        assert snap["bytes"] == len(v2.blob)


# ---------------------------------------------------------------------------
# Fault points and graceful degradation
# ---------------------------------------------------------------------------


class TestFaultsAndDegradation:
    def test_torn_write_keeps_previous_state(self, tmp_path, blobs):
        store = AssetStore(store_dir=tmp_path / "s")
        store.put_container("a", blobs["asset0"])
        with faults.inject(faults.DISK_WRITE, nth=1):
            store.put_container("a", blobs["asset1"])  # torn rewrite
        assert store.persist_failures == 1
        assert not store.memory_only  # one failure != degradation
        # The resident tier serves the new bytes (pinned), but disk
        # still holds the LAST durable version — never a torn one.
        assert store.get("a").blob == blobs["asset1"]
        assert store.get("a").pinned
        fresh = DiskStore(tmp_path / "s")
        assert fresh.read("a") == blobs["asset0"]
        assert fresh.last_recovery.quarantined == []

    def test_consecutive_persist_failures_degrade_sticky(
        self, tmp_path, blobs
    ):
        from repro.serve.store import PERSIST_FAILURE_LIMIT

        store = AssetStore(store_dir=tmp_path / "s")
        with faults.inject(faults.DISK_WRITE, p=1.0, seed=5):
            for i in range(PERSIST_FAILURE_LIMIT):
                assert not store.memory_only
                store.put_container(f"n{i}", blobs["asset0"])
        assert store.memory_only
        assert store.store_degradations == 1
        assert "consecutive persist failures" in store.degradation_reason
        # Sticky: later puts skip the disk without counting failures.
        store.put_container("later", blobs["asset1"])
        assert store.persist_failures == PERSIST_FAILURE_LIMIT
        assert store.get("later").pinned

    def test_fsync_fault_counts_as_persist_failure(self, tmp_path, blobs):
        store = AssetStore(store_dir=tmp_path / "s")
        with faults.inject(faults.DISK_FSYNC, nth=1):
            store.put_container("a", blobs["asset0"])
        assert store.persist_failures == 1
        assert "a" not in DiskStore(tmp_path / "s")

    def test_unwritable_dir_degrades_to_memory_only(
        self, tmp_path, blobs
    ):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        root = tmp_path / "ro"
        root.mkdir()
        root.chmod(stat_mod.S_IRUSR | stat_mod.S_IXUSR)
        try:
            store = AssetStore(store_dir=root / "s")
            assert store.memory_only
            assert store.store_degradations == 1
            store.put_container("a", blobs["asset0"])
            assert store.get("a").blob == blobs["asset0"]
        finally:
            root.chmod(0o700)

    def test_read_fault_does_not_quarantine(self, tmp_path, blobs):
        """A transient I/O error is not evidence of rot: the record
        must stay in service and succeed on retry."""
        store = DiskStore(tmp_path / "s")
        store.put("a", blobs["asset0"])
        with faults.inject(faults.DISK_READ, nth=1):
            with pytest.raises(OSError):
                store.read("a")
        assert store.quarantines == 0
        assert store.read("a") == blobs["asset0"]

    def test_corrupt_read_quarantines_and_raises_typed(
        self, tmp_path, blobs
    ):
        """disk.corrupt flips a bit on the READ path: the store must
        raise IntegrityError, quarantine the record, and keep serving
        the survivor — a retry must not re-serve rotten bytes."""
        budget = max(len(b) for b in blobs.values()) + 1
        store = AssetStore(
            store_dir=tmp_path / "s", resident_bytes=budget
        )
        store.put_container("a", blobs["asset0"])
        store.put_container("b", blobs["asset1"])  # evicts a
        with faults.inject(faults.DISK_CORRUPT, nth=1, key="a"):
            with pytest.raises(IntegrityError):
                store.get("a")  # hydration hits the flipped bit
        assert store.disk.quarantines == 1
        with pytest.raises(ServeError):
            store.get("a")  # gone, NOT wrong bytes
        assert store.get("b").blob == blobs["asset1"]


# ---------------------------------------------------------------------------
# Service-level cold start and metrics wiring
# ---------------------------------------------------------------------------


class TestServiceColdStart:
    def test_restart_recovers_and_decodes(self, tmp_path, payloads):
        root = tmp_path / "store"
        cfg = ServiceConfig(store_dir=root)
        with RecoilService(config=cfg) as svc:
            for name, data in payloads.items():
                svc.put_asset(name, data, num_splits=8)
        with RecoilService(config=cfg) as svc:
            rep = svc.store.recovery
            assert sorted(rep.recovered) == sorted(payloads)
            for name, data in payloads.items():
                out = svc.submit(name, 2).result(120)
                assert np.array_equal(out, data)
            snap = svc.metrics_snapshot()
            assert snap["store"]["assets"] == len(payloads)
            assert snap["store"]["disk"]["quarantines"] == 0
            assert snap["resilience"]["store_memory_only"] == 0
            assert snap["resilience"]["store_degradations"] == 0

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(resident_bytes=0)
        with pytest.raises(ServeError):
            ServiceConfig(shrink_cache_bytes=0)

    def test_metrics_schema_has_store_section(self, tmp_path, payloads):
        cfg = ServiceConfig(store_dir=tmp_path / "s")
        with RecoilService(config=cfg) as svc:
            name, data = next(iter(payloads.items()))
            svc.put_asset(name, data, num_splits=8)
            snap = svc.metrics_snapshot()
        store = snap["store"]
        for key in (
            "assets", "resident_assets", "resident_bytes",
            "resident_hits", "hydrations", "evictions",
            "tier_hit_rate", "persist_failures", "memory_only",
            "disk", "recovery", "shrink_cache",
        ):
            assert key in store, key
        assert store["disk"]["writes"] >= 1
        assert store["shrink_cache"]["evictions"]["total"] == 0


# ---------------------------------------------------------------------------
# Kill -9 mid-ingest, restart, recover: the whole point
# ---------------------------------------------------------------------------


class TestKillRestart:
    def test_sigkill_mid_ingest_recovers_on_restart(
        self, tmp_path, payloads, blobs
    ):
        """SIGKILL the serving daemon while clients are writing; a
        restart on the same --store-dir must serve every acked asset
        bit-identically and quarantine (not serve) anything torn."""
        from repro.serve import RecoilClient

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        root = tmp_path / "store"
        argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--demo-assets", "0", "--store-dir", str(root),
        ]

        def start():
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, env=env,
            )
            banner, port = [], None
            for line in proc.stdout:
                banner.append(line)
                if "listening on " in line:
                    addr = line.split("listening on ")[1].split()[0]
                    port = int(addr.rsplit(":", 1)[1])
                    break
            assert port, "server never came up"
            return proc, port, "".join(banner)

        proc, port, _ = start()
        acked = []
        try:
            with RecoilClient("127.0.0.1", port, timeout_s=30) as client:
                for name, blob in blobs.items():
                    client.put_container(name, blob)
                    acked.append(name)
            proc.send_signal(signal.SIGKILL)  # no drain, no atexit
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # Plant a torn write the crash could have left behind.
        (root / "tmp" / "torn.9.part").write_bytes(b"mid-write")

        proc, port, banner = start()
        try:
            assert f"recovered {len(acked)} assets" in banner
            with RecoilClient("127.0.0.1", port, timeout_s=30) as client:
                for name in acked:
                    out = client.decompress(name, 2)
                    assert np.array_equal(out, payloads[name])
                metrics = client.metrics()
            store = metrics["store"]
            assert store["recovery"]["manifest_rebuilt"] is False
            assert sorted(store["recovery"]["recovered"]) == sorted(acked)
            assert len(store["recovery"]["quarantined"]) == 1
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
