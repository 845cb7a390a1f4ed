"""Tests for measurement and reporting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import (
    Table,
    alternating_rounds,
    empirical_entropy,
    format_bytes,
    format_delta,
    ideal_compressed_bytes,
    kl_divergence_bits,
    symbol_rate,
)


class TestEntropy:
    def test_uniform(self):
        data = np.arange(256, dtype=np.uint8)
        assert empirical_entropy(data) == pytest.approx(8.0)

    def test_constant(self):
        assert empirical_entropy(np.zeros(100, dtype=np.uint8)) == 0.0

    def test_empty(self):
        assert empirical_entropy(np.array([], dtype=np.uint8)) == 0.0

    def test_ideal_bytes(self):
        data = np.tile(np.arange(2, dtype=np.uint8), 500)
        assert ideal_compressed_bytes(data) == pytest.approx(1000 / 8)

    def test_kl_zero_for_exact(self):
        counts = np.array([1, 3])
        probs = np.array([0.25, 0.75])
        assert kl_divergence_bits(counts, probs) == pytest.approx(0.0)

    def test_kl_positive_for_mismatch(self):
        assert kl_divergence_bits(
            np.array([1, 1]), np.array([0.9, 0.1])
        ) > 0

    def test_kl_infinite_for_unencodable(self):
        assert kl_divergence_bits(
            np.array([1, 1]), np.array([1.0, 0.0])
        ) == float("inf")

    def test_kl_empty(self):
        assert kl_divergence_bits(np.zeros(2), np.array([0.5, 0.5])) == 0.0


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(42) == "42 B"
        assert format_bytes(1500) == "1.5 KB"
        assert format_bytes(2_340_000) == "2.34 MB"

    def test_format_delta_paper_style(self):
        out = format_delta(163_670, 7_828_000)
        assert "+163.67 KB" in out
        assert "+2.09%" in out

    def test_format_delta_negative(self):
        out = format_delta(-177_660, 5_357_000)
        assert "-177.66 KB" in out
        assert "-3.32%" in out


class TestTable:
    def test_render(self):
        t = Table(headers=["a", "bb"], title="T")
        t.add_row(1, "x")
        text = t.render()
        assert "T" in text and "a" in text and "x" in text

    def test_row_width_mismatch(self):
        t = Table(headers=["a"])
        t.add_row(1, 2)
        with pytest.raises(ValueError):
            t.render()

    def test_markdown(self):
        t = Table(headers=["a", "b"])
        t.add_row("1", "2")
        md = t.render_markdown()
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in md

    def test_str(self):
        t = Table(headers=["h"])
        t.add_row("v")
        assert str(t) == t.render()


class TestTiming:
    def test_alternating_rounds_order_and_quartiles(self):
        calls: list[str] = []

        def timer(name, rates):
            def run() -> float:
                calls.append(name)
                return rates.pop(0)

            return run

        out = alternating_rounds(
            {
                "a": timer("a", [0.0, 1.0, 2.0, 3.0, 4.0]),
                "b": timer("b", [0.0, 10.0, 20.0, 30.0, 40.0]),
            },
            rounds=4,
        )
        # One untimed warm-up call each, then the order reverses
        # every other round.
        assert calls == ["a", "b"] + ["a", "b", "b", "a"] * 2
        assert out["a"][1] == 2.5
        assert out["b"][1] == 25.0
        assert out["a"][0] <= out["a"][1] <= out["a"][2]

    def test_alternating_rounds_needs_two(self):
        with pytest.raises(ValueError):
            alternating_rounds({"a": lambda: 1.0}, rounds=1)

    def test_symbol_rate_checks_outside_the_clock(self):
        checked: list[int] = []
        rate = symbol_rate(lambda: np.zeros(1000), checked.append)()
        assert rate > 0
        assert len(checked) == 1
