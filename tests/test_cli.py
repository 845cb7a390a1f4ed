"""Tests for the ``recoil`` file CLI."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main


@pytest.fixture()
def sample_file(tmp_path, skewed_bytes):
    path = tmp_path / "input.bin"
    skewed_bytes[:20_000].tofile(path)
    return path


class TestCli:
    def test_compress_decompress(self, tmp_path, sample_file, skewed_bytes,
                                  capsys):
        blob = tmp_path / "out.rcl"
        restored = tmp_path / "restored.bin"
        assert main(["compress", str(sample_file), str(blob),
                     "--splits", "32"]) == 0
        assert "32 splits" in capsys.readouterr().out
        assert main(["decompress", str(blob), str(restored)]) == 0
        out = np.fromfile(restored, dtype=np.uint8)
        assert np.array_equal(out, skewed_bytes[:20_000])

    def test_shrink_then_decompress(self, tmp_path, sample_file,
                                    skewed_bytes):
        blob = tmp_path / "out.rcl"
        small = tmp_path / "small.rcl"
        restored = tmp_path / "restored.bin"
        main(["compress", str(sample_file), str(blob), "--splits", "64"])
        assert main(["shrink", str(blob), str(small),
                     "--threads", "4"]) == 0
        assert small.stat().st_size < blob.stat().st_size
        assert main(["decompress", str(small), str(restored)]) == 0
        out = np.fromfile(restored, dtype=np.uint8)
        assert np.array_equal(out, skewed_bytes[:20_000])

    def test_decompress_with_cap(self, tmp_path, sample_file, skewed_bytes):
        blob = tmp_path / "out.rcl"
        restored = tmp_path / "restored.bin"
        main(["compress", str(sample_file), str(blob)])
        assert main(["decompress", str(blob), str(restored),
                     "--max-parallelism", "2"]) == 0
        out = np.fromfile(restored, dtype=np.uint8)
        assert np.array_equal(out, skewed_bytes[:20_000])

    def test_info(self, tmp_path, sample_file, capsys):
        blob = tmp_path / "out.rcl"
        main(["compress", str(sample_file), str(blob), "--splits", "16",
              "--quant", "12"])
        assert main(["info", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "n=12" in out
        assert "decoder threads:  16" in out
        assert "sync sections" in out

    def test_info_json(self, tmp_path, sample_file, capsys):
        import json

        blob = tmp_path / "out.rcl"
        main(["compress", str(sample_file), str(blob), "--splits", "16",
              "--quant", "12"])
        capsys.readouterr()
        assert main(["info", str(blob), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["container_bytes"] == blob.stat().st_size
        assert stats["symbols"] == 20_000
        assert stats["quant_bits"] == 12
        assert stats["decoder_threads"] == 16
        assert stats["splits"] == 15
        assert stats["payload_bytes"] == 2 * stats["payload_words"]
        assert 0 < stats["metadata_bytes"] < stats["container_bytes"]
        assert stats["sync_overhead_symbols"] > 0
        # The three sections add up to the container.
        assert (
            stats["header_bytes"]
            + stats["metadata_bytes"]
            + stats["payload_bytes"]
            == stats["container_bytes"]
        )

    def test_info_json_widened_metadata(self, tmp_path, capsys):
        """A metadata section written wider than the minimal encoding
        is reported at its written size, not at the size
        re-serializing it would give."""
        from wide_metadata import widened_container

        _, minimal, widened = widened_container()
        sizes = {}
        for name, blob in (("minimal", minimal), ("widened", widened)):
            path = tmp_path / f"{name}.rcl"
            path.write_bytes(blob)
            assert main(["info", str(path), "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert (
                stats["header_bytes"]
                + stats["metadata_bytes"]
                + stats["payload_bytes"]
                == stats["container_bytes"]
                == len(blob)
            )
            sizes[name] = stats["metadata_bytes"]
        assert sizes["widened"] - sizes["minimal"] == len(widened) - len(
            minimal
        )

    def test_serve_bench_smoke(self, capsys):
        import json

        assert main(["serve-bench", "--symbols", "6000",
                     "--clients", "1", "2", "--repeats", "1",
                     "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result["clients"]) == {"1", "2"}
        assert result["service_metrics"]["requests"]["failed"] == 0

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope.rcl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.rcl"
        bad.write_bytes(b"not a container at all")
        rc = main(["info", str(bad)])
        assert rc == 1

    def test_empty_input_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        rc = main(["compress", str(empty), str(tmp_path / "o.rcl")])
        assert rc == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestNetworkCli:
    """``recoil serve`` (daemon form) and ``recoil load-bench``
    (open-loop harness driver)."""

    def test_load_bench_json(self, capsys):
        assert main(["load-bench", "--symbols", "6000", "--assets", "2",
                     "--rate", "40", "--duration", "0.5",
                     "--seed", "3", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        clean = result["clean"]
        assert clean["mismatches"] == 0
        assert clean["protocol_errors"] == 0
        assert clean["ok"] > 0
        lm = clean["latency_ms"]
        assert lm["samples"] > 0
        assert lm["p50"] <= lm["p99"] <= lm["p999"] <= lm["max"]
        assert result["faulted"] is None
        net = result["network_metrics"]
        assert net["connections"]["active"] == 0
        assert net["connections"]["opened"] == net["connections"]["closed"]

    def test_load_bench_faulted_table(self, capsys):
        assert main(["load-bench", "--symbols", "6000", "--assets", "2",
                     "--rate", "30", "--duration", "0.4", "--seed", "5",
                     "--faults", "net.stall:p=0.3"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "faulted" in out
        assert "chaos: spec 'net.stall:p=0.3'" in out

    def test_load_bench_bad_fault_spec(self, capsys):
        assert main(["load-bench", "--faults", "no.such.point:p=0.5"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_serve_signal_drains_cleanly(self, sig):
        """The daemon must exit 0 on Ctrl-C/SIGTERM after a graceful
        drain — and actually serve bit-identical symbols first."""
        from repro.data import text_surrogate
        from repro.serve import RecoilClient

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--demo-assets", "1", "--symbols", "4000", "--splits", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            hostport = line.split("listening on ")[1].split()[0]
            host, port = hostport.rsplit(":", 1)
            # The demo asset is deterministic: reproduce it here and
            # verify the daemon serves it bit-identically over TCP.
            expected = text_surrogate(4000, target_entropy=5.29, seed=11)
            with RecoilClient(host, int(port), timeout_s=30) as client:
                assert client.ping(b"probe") == b"probe"
                out = client.decompress("asset0", 4)
                assert np.array_equal(out, expected)
            proc.send_signal(sig)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, stdout
        assert "draining" in stdout
        assert "drained" in stdout
        assert "2 requests over 1 connections" in stdout


class TestEncodingExperiment:
    def test_runs(self):
        from repro.experiments import encoding

        res = encoding.run(dataset="rand_100", profile="ci", splits=32)
        assert res.rows["recoil per-request shrink (s)"] < res.rows[
            "conventional per-request re-encode (s)"
        ]
        assert "MB/s" in res.table.render()


class TestStoreCli:
    """``recoil store scrub`` counts what the open's recovery
    quarantined as well as what the scrub itself finds."""

    @pytest.fixture()
    def store(self, tmp_path):
        from repro.serve.disk import DiskStore

        store = DiskStore(tmp_path / "store")
        store.put("a", b"alpha" * 100)
        store.put("b", b"bravo" * 100)
        return store

    def _scrub(self, store) -> int:
        return main(["store", "scrub", "--store-dir", str(store.root)])

    def test_clean_store(self, store, capsys):
        assert self._scrub(store) == 0
        out = capsys.readouterr().out
        assert "scrub: 2 verified, 0 quarantined (0 at open)" in out

    def test_rot_quarantined_at_open(self, store, capsys):
        path = store.path_for("a")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert self._scrub(store) == 1
        out = capsys.readouterr().out
        assert "scrub: 1 verified, 1 quarantined (1 at open)" in out
        assert "quarantined at open" in out and "a.rca" in out

    def test_rot_quarantined_by_scrub(self, store, capsys):
        from repro import faults

        with faults.inject(faults.DISK_CORRUPT, nth=1, key="b"):
            assert self._scrub(store) == 1
        out = capsys.readouterr().out
        assert "scrub: 1 verified, 1 quarantined (0 at open)" in out
        assert "quarantined b:" in out
