"""Tests for quantized symbol models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.rans.model import SymbolModel, quantize_counts


class TestQuantizeCounts:
    def test_sums_to_target(self):
        counts = np.array([10, 20, 30, 40])
        freqs = quantize_counts(counts, 11)
        assert freqs.sum() == 2**11

    def test_proportions_preserved(self):
        counts = np.array([1, 1, 2])
        freqs = quantize_counts(counts, 8)
        assert freqs[2] == pytest.approx(2 * freqs[0], rel=0.1)

    def test_present_symbols_nonzero(self):
        counts = np.zeros(256)
        counts[0] = 1_000_000
        counts[255] = 1  # rare symbol must stay encodable
        freqs = quantize_counts(counts, 11)
        assert freqs[255] >= 1
        assert freqs[0] > 1800

    def test_absent_symbols_zero(self):
        freqs = quantize_counts(np.array([5, 0, 5]), 8)
        assert freqs[1] == 0

    def test_too_many_symbols_rejected(self):
        with pytest.raises(ModelError):
            quantize_counts(np.ones(300), 8)  # 300 > 2**8

    def test_empty_counts_rejected(self):
        with pytest.raises(ModelError):
            quantize_counts(np.zeros(4), 8)

    def test_negative_counts_rejected(self):
        with pytest.raises(ModelError):
            quantize_counts(np.array([1, -1]), 8)

    def test_bad_quant_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_counts(np.array([1, 1]), 0)
        with pytest.raises(ValueError):
            quantize_counts(np.array([1, 1]), 17)

    def test_float_counts_accepted(self):
        freqs = quantize_counts(np.array([0.25, 0.75]), 10)
        assert freqs.sum() == 1024
        assert freqs[1] == pytest.approx(768, abs=2)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=2,
                 max_size=64).filter(lambda c: sum(c) > 0),
        st.integers(min_value=8, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_invariants_property(self, counts, n):
        counts = np.array(counts)
        freqs = quantize_counts(counts, n)
        assert int(freqs.sum()) == 2**n
        assert np.array_equal(counts > 0, freqs > 0)
        assert np.all(freqs[counts > 0] >= 1)
        assert np.all(freqs[counts == 0] == 0)


class TestQuantizeResidualBranches:
    """The two residual-correction paths of quantize_counts.

    Flooring plus the at-least-one rule can overshoot the budget
    (negative residual: the shrink loop) and the bump loop guards
    against a residual larger than one pass can place (the wrap-around
    ``i = 0`` reset).  The wrap case cannot arise from real counts —
    per-symbol floor loss is below 1, so ``residual <= num_present`` —
    which is why it is exercised by fault injection.
    """

    def test_negative_residual_shrinks_dominant_symbol(self):
        # 10 rare symbols are bumped to frequency 1, overshooting the
        # 16-slot budget; the surplus must come back from the dominant
        # symbol (largest freq per count — the cheapest place).
        counts = np.array([1000] + [1] * 10, dtype=np.int64)
        freqs = quantize_counts(counts, 4)
        assert int(freqs.sum()) == 16
        assert np.all(freqs[1:] == 1)
        assert freqs[0] == 6

    def test_negative_residual_multiple_rounds(self):
        # Only two symbols are shrinkable (freq > 1) but five slots
        # must be returned: the shrink loop has to iterate.
        counts = np.array([100, 90] + [1] * 12, dtype=np.int64)
        freqs = quantize_counts(counts, 4)
        assert int(freqs.sum()) == 16
        assert np.all(freqs[2:] == 1)
        assert np.all(freqs[:2] >= 1)

    def test_negative_residual_never_below_one(self):
        # Everything present stays encodable no matter how deep the
        # overshoot goes.
        counts = np.array([10**9, 5, 4, 3, 2, 1, 1, 1], dtype=np.int64)
        freqs = quantize_counts(counts, 3)
        assert int(freqs.sum()) == 8
        assert np.all(freqs > 0)

    def test_wrap_around_bump(self, monkeypatch):
        """Fault-injected floor that loses one extra slot per symbol,
        pushing the residual past num_present so the bump loop must
        wrap (i = 0) and distribute a second round."""
        import repro.rans.model as model_mod

        class LossyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def floor(x):
                return np.maximum(np.floor(x) - 1, 0)

        monkeypatch.setattr(model_mod, "np", LossyNumpy())
        counts = np.array([40, 30, 20, 10], dtype=np.int64)
        freqs = quantize_counts(counts, 4)
        assert int(freqs.sum()) == 16
        assert np.all(freqs > 0)


class TestSymbolModel:
    def test_cdf_structure(self, model11):
        assert model11.cdf[0] == 0
        assert model11.cdf[-1] == 2**11
        assert np.all(np.diff(model11.cdf.astype(np.int64)) >= 0)

    def test_lut_consistency(self, model11):
        """slot_to_symbol inverts the CDF: F(s) <= slot < F(s+1)."""
        lut = model11.slot_to_symbol
        assert len(lut) == 2**11
        slots = np.arange(2**11)
        syms = lut[slots].astype(np.int64)
        assert np.all(model11.cdf[syms] <= slots)
        assert np.all(slots < model11.cdf[syms + 1])

    def test_freq_sum_validated(self):
        with pytest.raises(ModelError):
            SymbolModel(np.array([1, 2], dtype=np.uint32), 8)

    def test_uniform_model(self):
        m = SymbolModel.uniform(256, 11)
        assert m.freqs.sum() == 2**11
        assert m.freqs.max() - m.freqs.min() <= 1

    def test_uniform_too_large_rejected(self):
        with pytest.raises(ModelError):
            SymbolModel.uniform(512, 8)

    def test_entropy_bounds(self, model11):
        h = model11.entropy_bits_per_symbol
        assert 0 < h <= 8

    def test_cost_bits_matches_entropy(self, skewed_bytes, model11):
        cost = model11.cost_bits(skewed_bytes)
        per_sym = cost / len(skewed_bytes)
        assert abs(per_sym - model11.entropy_bits_per_symbol) < 0.2

    def test_cost_bits_zero_freq_rejected(self, model11):
        missing = int(np.flatnonzero(model11.freqs == 0)[0]) if np.any(
            model11.freqs == 0
        ) else None
        if missing is None:
            pytest.skip("model has full support")
        with pytest.raises(ModelError):
            model11.cost_bits(np.array([missing]))

    def test_serialization_roundtrip(self, model11):
        blob = model11.to_bytes()
        out, consumed = SymbolModel.from_bytes(blob)
        assert consumed == len(blob)
        assert out == model11

    def test_serialization_sparse_alphabet(self):
        counts = np.zeros(65536)
        counts[[5, 17, 40000]] = [3, 5, 9]
        m = SymbolModel.from_counts(counts, 16)
        blob = m.to_bytes()
        # Zero-run coding keeps sparse 16-bit models tiny.
        assert len(blob) < 64
        out, _ = SymbolModel.from_bytes(blob)
        assert out == m

    def test_equality_and_hash(self, model11, model16):
        clone = SymbolModel(model11.freqs.copy(), model11.quant_bits)
        assert clone == model11
        assert hash(clone) == hash(model11)
        assert model11 != model16

    def test_repr(self, model11):
        assert "SymbolModel" in repr(model11)

    def test_from_data_symbol_outside_alphabet(self):
        with pytest.raises(ModelError):
            SymbolModel.from_data(np.array([300]), 11, alphabet_size=256)

    def test_empty_data_rejected(self):
        with pytest.raises(ModelError):
            SymbolModel.from_data(np.array([], dtype=np.uint8), 11)

    def test_immutable_arrays(self, model11):
        with pytest.raises(ValueError):
            model11.freqs[0] = 1
        with pytest.raises(ValueError):
            model11.cdf[0] = 1

    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=8, max_value=14))
    @settings(max_examples=40, deadline=None)
    def test_model_from_random_counts_property(self, alphabet, n):
        r = np.random.default_rng(alphabet * 31 + n)
        counts = r.integers(0, 1000, alphabet) + (r.random(alphabet) < 0.5)
        if counts.sum() == 0:
            counts[0] = 1
        m = SymbolModel.from_counts(counts, n)
        lut = m.slot_to_symbol
        # Every slot maps to a symbol whose CDF window contains it.
        slots = np.arange(1 << n)
        syms = lut[slots].astype(np.int64)
        assert np.all(m.cdf[syms] <= slots)
        assert np.all(slots < m.cdf[syms + 1])
