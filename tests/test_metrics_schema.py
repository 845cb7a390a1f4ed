"""Snapshot-schema drift guard for the metrics layer.

The failure mode this prevents: someone adds a ``record_*`` counter to
:class:`~repro.serve.metrics.ServeMetrics` or ``NetMetrics`` but
forgets to surface it in ``snapshot()`` — the number is collected,
locked, and then silently invisible to ``recoil serve-bench --json``,
``OP_METRICS`` and every dashboard built on them.

Both directions are checked:

- **forward**: every public numeric counter attribute, stamped with a
  unique sentinel, must appear among the snapshot's numeric leaves;
- **reverse**: every numeric leaf of the snapshot must either be one
  of those sentinels (i.e. backed by a counter) or a key on the
  explicit *derived-values* allowlist — so derived values stay
  deliberate, not accidental.
"""

from __future__ import annotations

import pytest

from repro.serve.metrics import NetMetrics, ServeMetrics

#: snapshot keys computed from counters rather than stored (adding a
#: derived value means adding it here — that is the point).
DERIVED_KEYS = {
    ServeMetrics: {"mean_latency_s", "mean_requests", "hit_rate"},
    NetMetrics: {"active", "total"},
}


def _counter_attrs(metrics) -> dict[str, int | float]:
    """Public numeric counter attributes (the lock and the stage
    histogram dict are not counters)."""
    return {
        name: value
        for name, value in vars(metrics).items()
        if not name.startswith("_")
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def _numeric_leaves(tree, prefix="") -> dict[str, int | float]:
    """Flatten a snapshot dict to ``path -> numeric value`` leaves,
    skipping the stage histogram subtree (histograms are sampled
    distributions, not counters)."""
    leaves: dict[str, int | float] = {}
    for key, value in tree.items():
        if key == "stage_latency_ms":
            continue
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            leaves.update(_numeric_leaves(value, prefix=f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[path] = value
    return leaves


def _stamp(metrics) -> dict[str, int | float]:
    """Give every counter a unique sentinel value (type-preserving)."""
    sentinels = {}
    for i, (name, value) in enumerate(sorted(_counter_attrs(metrics).items())):
        sentinel = 100_003 + 7 * i + (0.5 if isinstance(value, float) else 0)
        setattr(metrics, name, sentinel)
        sentinels[name] = sentinel
    return sentinels


@pytest.mark.parametrize("cls", [ServeMetrics, NetMetrics])
class TestSnapshotSchema:
    def test_every_counter_surfaces_in_snapshot(self, cls):
        metrics = cls()
        sentinels = _stamp(metrics)
        assert sentinels, "no counters found — enumeration broke"
        leaf_values = set(_numeric_leaves(metrics.snapshot()).values())
        missing = {
            name: sentinel
            for name, sentinel in sentinels.items()
            if sentinel not in leaf_values
        }
        assert not missing, (
            f"{cls.__name__} counters not visible in snapshot(): "
            f"{sorted(missing)} — add them to snapshot() (or drop the "
            "counter)"
        )

    def test_every_leaf_is_counter_backed_or_declared_derived(self, cls):
        metrics = cls()
        sentinels = set(_stamp(metrics).values())
        allowlist = DERIVED_KEYS[cls]
        unexplained = {
            path
            for path, value in _numeric_leaves(metrics.snapshot()).items()
            if value not in sentinels
            and path.rsplit(".", 1)[-1] not in allowlist
        }
        assert not unexplained, (
            f"{cls.__name__}.snapshot() leaves backed by no counter and "
            f"not declared derived: {sorted(unexplained)} — either back "
            "them with a counter attribute or add them to DERIVED_KEYS"
        )

    def test_stage_histograms_in_snapshot(self, cls):
        metrics = cls()
        metrics.stage(next(iter(metrics.stages)), 0.0, 0.01)
        stages = metrics.snapshot()["stage_latency_ms"]
        assert set(stages) == set(metrics.stages)
        recorded = next(iter(metrics.stages))
        assert stages[recorded]["count"] == 1
        assert stages[recorded]["p99_ms"] == pytest.approx(10.0, rel=0.1)


def test_record_methods_feed_snapshot_smoke():
    """Light behavioral pass: drive each record_* method once and
    confirm the obvious leaves move."""
    m = ServeMetrics()
    m.record_submit()
    m.record_completion(0.5, ok=True)
    m.record_batch(num_requests=3, num_tasks=4, symbols=100, seconds=0.1)
    m.record_shrink(1000, cache_hit=True)
    snap = m.snapshot()
    assert snap["requests"]["submitted"] == 1
    assert snap["requests"]["completed"] == 1
    assert snap["batches"]["dispatched"] == 1
    assert snap["shrink"]["bytes_served"] == 1000

    n = NetMetrics()
    n.connection_opened()
    n.record_request(ok=True)
    n.stage("e2e", 0.0, 0.02)
    snap = n.snapshot()
    assert snap["connections"]["opened"] == 1
    assert snap["connections"]["active"] == 1
    assert snap["requests"]["ok"] == 1
    assert snap["stage_latency_ms"]["e2e"]["count"] == 1
