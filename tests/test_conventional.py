"""Tests for the Conventional and Single-Thread baselines (§2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ConventionalCodec, SingleThreadCodec
from repro.baselines.conventional import partition_bounds
from repro.data import synthesize_latents
from repro.errors import ContainerError, EncodeError


class TestPartitionBounds:
    def test_even_split(self):
        bounds = partition_bounds(100, 4)
        assert bounds == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split(self):
        bounds = partition_bounds(10, 3)
        assert bounds == [(0, 4), (4, 8), (8, 10)]
        assert bounds[-1][1] == 10

    def test_more_partitions_than_symbols(self):
        bounds = partition_bounds(3, 10)
        assert len(bounds) == 3
        assert all(e - s == 1 for s, e in bounds)

    def test_single_partition(self):
        assert partition_bounds(42, 1) == [(0, 42)]

    def test_zero_symbols(self):
        assert partition_bounds(0, 4) == [(0, 0)]

    def test_bad_partitions(self):
        with pytest.raises(EncodeError):
            partition_bounds(10, 0)


class TestConventionalRoundtrip:
    @pytest.mark.parametrize("partitions", [1, 2, 7, 16, 100])
    def test_roundtrip(self, skewed_bytes, provider11, partitions):
        codec = ConventionalCodec(provider11)
        blob = codec.compress(skewed_bytes, partitions)
        out = codec.decompress(blob)
        assert np.array_equal(out, skewed_bytes)

    def test_container_roundtrip_fields(self, skewed_bytes, provider11):
        codec = ConventionalCodec(provider11)
        enc = codec.encode(skewed_bytes, 8)
        blob = codec.build_container(enc)
        back = codec.parse_container(blob)
        assert back.num_partitions == 8
        assert back.num_symbols == len(skewed_bytes)
        assert np.array_equal(back.word_offsets, enc.word_offsets)
        assert np.array_equal(back.final_states, enc.final_states)
        assert np.array_equal(back.words, enc.words)

    def test_bad_magic(self, skewed_bytes, provider11):
        codec = ConventionalCodec(provider11)
        blob = codec.compress(skewed_bytes, 2)
        with pytest.raises(ContainerError):
            codec.parse_container(b"ZZZZ" + blob[4:])

    def test_every_prefix_fails_typed(self, skewed_bytes, provider11):
        """A truncated container fails with ContainerError wherever
        it is cut — header, offset table, final states, model or
        payload — never with a builtin."""
        codec = ConventionalCodec(provider11)
        blob = codec.compress(skewed_bytes[:2_000], 4)
        for n in range(len(blob)):
            with pytest.raises(ContainerError):
                codec.decompress(blob[:n])

    def test_foreign_lane_count_rejected(self, skewed_bytes, provider11):
        blob = ConventionalCodec(provider11, lanes=8).compress(
            skewed_bytes[:2_000], 4
        )
        with pytest.raises(ContainerError, match="lanes"):
            ConventionalCodec(provider11).decompress(blob)

    def test_adaptive_partitions(self):
        """Conventional must also handle per-index models (the image
        comparison in Table 6)."""
        plane = synthesize_latents(20_000, seed=21)
        codec = ConventionalCodec(plane.provider)
        blob = codec.compress(plane.symbols, 8)
        out = codec.decompress(blob)
        assert np.array_equal(out, plane.symbols)

    def test_overhead_linear_in_partitions(self, skewed_bytes, provider11):
        """The Figure-3 effect: ~constant bytes per extra partition."""
        codec = ConventionalCodec(provider11)
        s1 = len(codec.compress(skewed_bytes, 1))
        s20 = len(codec.compress(skewed_bytes, 20))
        s40 = len(codec.compress(skewed_bytes, 40))
        per_part_a = (s20 - s1) / 19
        per_part_b = (s40 - s20) / 20
        # Within 2x of each other and in the states+offset ballpark.
        assert 60 < per_part_a < 250
        assert 0.5 < per_part_a / per_part_b < 2.0

    def test_decode_stats(self, skewed_bytes, provider11):
        codec = ConventionalCodec(provider11)
        enc = codec.encode(skewed_bytes, 8)
        out, stats, workload = codec.decode(enc)
        assert np.array_equal(out, skewed_bytes)
        assert workload.num_tasks == 8
        # Conventional has NO sync overhead — that is Recoil's price.
        assert workload.overhead_symbols == 0
        assert stats.symbols_decoded == len(skewed_bytes)

    def test_empty_input(self, provider11):
        codec = ConventionalCodec(provider11)
        blob = codec.compress(np.array([], dtype=np.uint8), 4)
        out = codec.decompress(blob)
        assert len(out) == 0


class TestSingleThread:
    def test_is_one_partition(self, skewed_bytes, provider11):
        st = SingleThreadCodec(provider11)
        conv = ConventionalCodec(provider11)
        assert st.compress(skewed_bytes) == conv.compress(skewed_bytes, 1)

    def test_multi_partition_rejected(self, skewed_bytes, provider11):
        with pytest.raises(ValueError):
            SingleThreadCodec(provider11).compress(skewed_bytes, 4)

    def test_serial_decode_matches(self, skewed_bytes, provider11):
        st = SingleThreadCodec(provider11)
        blob = st.compress(skewed_bytes)
        assert np.array_equal(st.decompress(blob), skewed_bytes)
