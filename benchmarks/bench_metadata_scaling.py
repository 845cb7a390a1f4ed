"""Metadata scaling: bytes/split, decode overhead, shrink latency.

Recoil's economics hinge on the per-split metadata cost staying well
under the Conventional per-partition cost (~132 B at K=32) while the
decode-time sync overhead stays negligible.  This bench sweeps split
counts and pins both, plus the serving-path latencies.
"""

from __future__ import annotations

import pytest

from repro.baselines import ConventionalCodec
from repro.core.encoder import RecoilEncoder
from repro.core.serialization import metadata_size_bytes

SPLITS = [16, 64, 256, 1024]


@pytest.fixture(scope="module")
def encodes(bench_bytes, bench_model):
    enc = RecoilEncoder(bench_model)
    return {s: enc.encode(bench_bytes, s) for s in SPLITS}


class TestMetadataScaling:
    def test_bytes_per_split_stable(self, encodes):
        """Marginal metadata cost is ~flat in the split count."""
        costs = {}
        for s, enc in encodes.items():
            entries = len(enc.metadata.word_offsets)
            if entries:
                costs[s] = metadata_size_bytes(enc.metadata) / entries
        values = list(costs.values())
        assert max(values) < 100
        assert max(values) / min(values) < 1.4

    def test_recoil_split_cheaper_than_conventional_partition(
        self, encodes, bench_bytes, bench_provider
    ):
        """Per-split metadata < per-partition overhead, always."""
        conv = ConventionalCodec(bench_provider)
        conv_per = conv.encode(bench_bytes, 2).per_partition_overhead_bytes
        for s, enc in encodes.items():
            entries = len(enc.metadata.word_offsets)
            if entries:
                per = metadata_size_bytes(enc.metadata) / entries
                assert per < conv_per, s

    def test_sync_overhead_per_split_constant(self, encodes):
        """Sync cost is ~120 symbols per split (a few K-groups),
        independent of the split count — so at paper scale (10 MB,
        2176 splits) the decode overhead is ~2.6% and shrinks further
        with payload size."""
        for s, enc in encodes.items():
            entries = len(enc.metadata.word_offsets)
            if not entries:
                continue
            per_entry = enc.metadata.sync_overhead_symbols() / entries
            assert per_entry < 8 * 32, s

    @pytest.mark.parametrize("splits", SPLITS)
    def test_bench_metadata_serialize(self, benchmark, encodes, splits):
        from repro.core.serialization import serialize_metadata

        md = encodes[splits].metadata
        blob = benchmark(serialize_metadata, md)
        assert len(blob) > 0

