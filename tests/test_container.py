"""Tests for the Recoil container format and server-side shrinking."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    RecoilCodec,
    build_container,
    parse_container,
    shrink_container,
)
from repro.core.api import recoil_decompress
from repro.core.encoder import RecoilEncoder
from repro.core.serialization import serialize_metadata
from repro.errors import ContainerError
from repro.rans.adaptive import StaticModelProvider

from golden_cases import rans_cases
from wide_metadata import EXTRA_BITS, widened_container

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def blob(skewed_bytes, provider11):
    return RecoilCodec(provider11).compress(skewed_bytes, 64)


class TestContainer:
    def test_roundtrip_fields(self, blob, skewed_bytes, provider11):
        parsed = parse_container(blob)
        assert parsed.quant_bits == 11
        assert parsed.lanes == 32
        assert parsed.num_symbols == len(skewed_bytes)
        assert parsed.metadata.num_threads == 64
        assert parsed.provider is not None
        assert parsed.provider.models[0] == provider11.models[0]

    def test_payload_view_is_zero_copy(self, blob):
        parsed = parse_container(blob)
        words = parsed.words(blob)
        assert words.dtype == np.dtype("<u2")
        assert len(words) == parsed.num_words

    def test_bad_magic(self, blob):
        with pytest.raises(ContainerError):
            parse_container(b"XXXX" + blob[4:])

    def test_bad_version(self, blob):
        bad = blob[:4] + bytes([99]) + blob[5:]
        with pytest.raises(ContainerError):
            parse_container(bad)

    def test_truncated_header(self):
        with pytest.raises(ContainerError):
            parse_container(b"RCL1\x01")

    def test_truncated_payload(self, blob):
        with pytest.raises(ContainerError):
            parse_container(blob[:-10])

    def test_adaptive_requires_provider(self, skewed_bytes, provider11):
        enc = RecoilEncoder(provider11).encode(skewed_bytes, 8)
        naked = build_container(enc, embed_model=False)
        with pytest.raises(ContainerError):
            parse_container(naked)
        parsed = parse_container(naked, provider=provider11)
        assert parsed.provider is provider11
        parsed = parse_container(naked, require_model=False)
        assert parsed.provider is None

    def test_embed_adaptive_rejected(self, skewed_bytes, model11):
        from repro.rans.adaptive import IndexedModelProvider

        prov = IndexedModelProvider(
            [model11, model11], np.zeros(len(skewed_bytes), dtype=int)
        )
        enc = RecoilEncoder(prov).encode(skewed_bytes, 4)
        with pytest.raises(ContainerError):
            build_container(enc, provider=prov, embed_model=True)


class TestShrink:
    @pytest.mark.parametrize("target", [32, 16, 5, 2, 1])
    def test_shrink_decodes(self, blob, skewed_bytes, provider11, target):
        small = shrink_container(blob, target)
        codec = RecoilCodec(provider11)
        out = codec.decompress(small)
        assert np.array_equal(out, skewed_bytes)
        parsed = parse_container(small)
        assert parsed.metadata.num_threads <= target

    def test_shrink_monotone_sizes(self, blob):
        sizes = [len(shrink_container(blob, t)) for t in (64, 16, 4, 1)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] <= len(blob)

    def test_payload_untouched(self, blob):
        """The whole point: shrinking rewrites metadata only."""
        small = shrink_container(blob, 4)
        p_full = parse_container(blob)
        p_small = parse_container(small)
        assert np.array_equal(p_full.words(blob), p_small.words(small))
        assert np.array_equal(p_full.final_states, p_small.final_states)

    def test_shrink_is_fast_metadata_surgery(self, blob):
        """No re-encoding: shrinking must beat encoding by orders of
        magnitude (it is a per-request server operation, §3.3)."""
        import time

        t0 = time.perf_counter()
        for _ in range(20):
            shrink_container(blob, 8)
        per_op = (time.perf_counter() - t0) / 20
        assert per_op < 0.05  # 50 ms is already generous

    def test_shrink_validates_target_before_parsing(self):
        from repro.errors import MetadataError

        # The target check fires before the (possibly expensive or
        # even impossible) container parse.
        with pytest.raises(MetadataError):
            shrink_container(b"definitely not a container", 0)

    def test_shrink_grow_is_noop(self, blob):
        same = shrink_container(blob, 10_000)
        assert parse_container(same).metadata.num_threads == 64


class TestMetadataOffset:
    """Shrinks splice at the metadata offset the parse recorded."""

    @pytest.mark.parametrize(
        "name", [c["name"] for c in rans_cases()]
    )
    def test_offset_locates_golden_sections(self, name):
        case = next(c for c in rans_cases() if c["name"] == name)
        with open(os.path.join(GOLDEN_DIR, f"{name}.bin"), "rb") as f:
            blob = f.read()
        parsed = parse_container(blob, provider=case["provider"])
        md_len = len(serialize_metadata(parsed.metadata))
        assert parsed.metadata_offset + md_len == parsed.payload_offset

    def test_shrink_of_non_minimal_widths_decodes(self):
        """A valid section longer than its minimal re-serialization:
        every shrink still decodes bit-exactly."""
        data, minimal, widened = widened_container()
        parsed = parse_container(widened)
        assert len(widened) == len(minimal) + EXTRA_BITS * parsed.lanes // 8
        assert np.array_equal(recoil_decompress(widened), data)
        for cap in (2, 4, 8):
            small = shrink_container(widened, cap)
            assert small == shrink_container(minimal, cap)
            assert np.array_equal(recoil_decompress(small), data)
