"""Tests for adaptive model providers and the Gaussian bank."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.rans.adaptive import (
    AdaptiveModelProvider,
    GaussianModelBank,
    IndexedModelProvider,
    StaticModelProvider,
)
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel


@pytest.fixture(scope="module")
def bank():
    return GaussianModelBank(12, alphabet_size=2048, num_scales=8)


class TestStaticProvider:
    def test_basics(self, model11, provider11):
        assert provider11.is_static
        assert provider11.num_models == 1
        assert provider11.quant_bits == 11
        assert provider11.alphabet_size == 256
        assert provider11.model_for_index(123) is model11

    def test_ids_all_zero(self, provider11):
        ids = provider11.model_ids_for_range(1, 100)
        assert np.all(ids == 0)
        assert len(ids) == 99

    def test_gather(self, provider11, model11, skewed_bytes):
        f, cdf = provider11.gather_freq_cdf(skewed_bytes[:100])
        assert np.array_equal(f, model11.freqs[skewed_bytes[:100]])
        assert np.array_equal(cdf, model11.cdf[skewed_bytes[:100]])

    def test_gather_zero_freq_rejected(self, provider11, model11):
        if not np.any(model11.freqs == 0):
            pytest.skip("full support")
        missing = int(np.flatnonzero(model11.freqs == 0)[0])
        with pytest.raises(ModelError):
            provider11.gather_freq_cdf(np.array([missing]))

    def test_table_bytes_positive(self, provider11):
        assert provider11.table_bytes() > 0


class TestIndexedProvider:
    def test_mixed_quant_rejected(self, model11, model16):
        with pytest.raises(ModelError):
            IndexedModelProvider([model11, model16], np.zeros(4, dtype=int))

    def test_mixed_alphabet_rejected(self, model11):
        other = SymbolModel.uniform(128, 11)
        with pytest.raises(ModelError):
            IndexedModelProvider([model11, other], np.zeros(4, dtype=int))

    def test_id_out_of_range_rejected(self, model11):
        with pytest.raises(ModelError):
            IndexedModelProvider([model11], np.array([1]))

    def test_range_outside_sequence_rejected(self, model11):
        p = IndexedModelProvider([model11], np.zeros(10, dtype=int))
        with pytest.raises(ModelError):
            p.model_ids_for_range(1, 12)
        with pytest.raises(ModelError):
            p.model_ids_for_range(0, 5)

    def test_per_index_mapping(self, model11):
        m2 = SymbolModel.uniform(256, 11)
        ids = np.array([0, 1, 1, 0])
        p = IndexedModelProvider([model11, m2], ids)
        assert not p.is_static
        assert p.model_for_index(1) is model11
        assert p.model_for_index(2) is m2
        assert np.array_equal(p.model_ids_for_range(2, 4), [1, 1])

    def test_tables_shapes(self, model11):
        m2 = SymbolModel.uniform(256, 11)
        p = IndexedModelProvider([model11, m2], np.array([0, 1]))
        assert p.freq_table.shape == (2, 256)
        assert p.cdf_table.shape == (2, 257)

    def test_empty_models_rejected(self):
        with pytest.raises(ModelError):
            AdaptiveModelProvider([])


class TestGaussianBank:
    def test_models_share_geometry(self, bank):
        models = bank.models
        assert len(models) == 8
        for m in models:
            assert m.quant_bits == 12
            assert m.alphabet_size == 2048
            assert int(m.freqs.sum()) == 2**12

    def test_narrow_scale_concentrates_mass(self, bank):
        narrow = bank.models[0]
        center = bank.center
        # Smallest scale: nearly all mass on the center symbol.
        assert narrow.freqs[center] > 0.9 * 2**12

    def test_wide_scale_spreads_mass(self, bank):
        wide = bank.models[-1]
        assert (wide.freqs > 0).sum() > 100

    def test_entropy_monotone_in_scale(self, bank):
        ent = [m.entropy_bits_per_symbol for m in bank.models]
        assert all(a <= b + 1e-9 for a, b in zip(ent, ent[1:]))

    def test_scale_to_id_clipping(self, bank):
        ids = bank.scale_to_id(np.array([1e-9, 1e9]))
        assert ids[0] == 0
        assert ids[1] == len(bank.scales) - 1

    def test_provider_roundtrip(self, bank):
        r = np.random.default_rng(6)
        ids = r.integers(0, 8, 3_000)
        provider = bank.provider_for_ids(ids)
        slots = r.integers(0, 2**12, 3_000)
        syms = np.empty(3_000, dtype=np.uint16)
        for mid in range(8):
            mask = ids == mid
            syms[mask] = bank.models[mid].slot_to_symbol[slots[mask]]
        enc = InterleavedEncoder(provider).encode(syms, record_events=True)
        out = InterleavedDecoder(provider).decode(
            enc.words, enc.final_states, len(syms)
        )
        assert np.array_equal(out, syms)

    def test_rate_tracks_model_entropy(self, bank):
        """Coded size within a few % of the per-index model entropy."""
        r = np.random.default_rng(8)
        ids = np.repeat(np.arange(8), 2000)
        provider = bank.provider_for_ids(ids)
        slots = r.integers(0, 2**12, len(ids))
        syms = np.empty(len(ids), dtype=np.uint16)
        for mid in range(8):
            mask = ids == mid
            syms[mask] = bank.models[mid].slot_to_symbol[slots[mask]]
        enc = InterleavedEncoder(provider).encode(syms)
        ideal_bits = sum(
            2000 * bank.models[m].entropy_bits_per_symbol for m in range(8)
        )
        actual_bits = 16 * enc.num_words
        assert actual_bits < ideal_bits * 1.05 + 32 * 32

    def test_provider_for_scales(self, bank):
        p = bank.provider_for_scales(np.array([0.2, 5.0, 100.0]))
        ids = p.ids
        assert ids[0] < ids[1] < ids[2]
