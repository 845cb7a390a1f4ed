"""Self-tests of the benchmark: verification bites, figures repeat within
a seed, the traced run accounts for every millisecond, and a directory
without the program fails cleanly.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` (about two
minutes: it starts real servers; the tier-1 suite does not collect it).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from layers import Span, assign_self_times  # noqa: E402


def bench(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["decode", "fetch", "ingest"])
def test_planted_mismatch_fails_and_clean_run_passes(workload):
    code, lines = bench("--workload", workload, "--seed", "2")
    clean = result_of(lines)
    assert code == 0
    assert clean["correct"] is True and clean["failed"] == 0
    assert clean["metrics"]["ok_pct"]["value"] == 100.0

    code, lines = bench(
        "--workload", workload, "--seed", "2", "--plant-mismatch"
    )
    planted = result_of(lines)
    assert code != 0
    assert planted["correct"] is False and planted["failed"] >= 1
    assert planted["metrics"]["ok_pct"]["value"] < 100.0
    # The container figures depend on the seed alone.
    for name in ("bits_per_symbol", "overhead_pct"):
        assert planted["metrics"][name] == clean["metrics"][name]


def test_traced_run_reports_every_layer_and_adds_up():
    code, lines = bench("--workload", "ingest", "--seed", "1", "--trace", "1")
    assert code == 0
    metrics = {k: v["value"] for k, v in result_of(lines)["metrics"].items()}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(metrics) == sorted(names)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    total = layers + metrics["unattributed_ms"]
    assert total == pytest.approx(metrics["trace.e2e_ms"], rel=1e-9)
    for name in ("core.split_ms", "rans.encode_ms", "store.persist_ms",
                 "store.shrink_miss_ms", "core.parse_ms", "net.read_ms"):
        assert metrics[name] > 0, name
    assert metrics["store.hit_pct"] == 0.0


def test_self_times_partition_the_window():
    # parent [0, 10] holds a child [2, 5] and a child that overruns its
    # parent [4, 12]; a second root [11, 14]; the window is [0, 15].
    spans = [
        Span("p", "net", 0.0, 10.0),
        Span("a", "core", 2.0, 5.0),
        Span("b", "store", 4.0, 12.0),
        Span("r", "rans", 11.0, 14.0),
    ]
    uncovered = assign_self_times(spans, 0.0, 15.0)
    by_name = {s.name: s.self_s for s in spans}
    # b starts inside a: it nests there and is clipped to a's end.
    assert by_name == {"p": 7.0, "a": 2.0, "b": 1.0, "r": 3.0}
    assert uncovered == pytest.approx(15.0 - sum(by_name.values()))


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = bench(
        "--workload", "decode", "--seed", "1", cwd=str(tmp_path), timeout=60
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
