"""Tests for detached sidecar metadata (paper §6 future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    build_sidecar,
    parse_sidecar,
    payload_checksum,
    shrink_sidecar,
)
from repro.core.decoder import RecoilDecoder
from repro.core.encoder import RecoilEncoder
from repro.data.textgen import text_surrogate
from repro.errors import ContainerError
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel


@pytest.fixture(scope="module")
def encoded(skewed_bytes, model11):
    return RecoilEncoder(model11).encode(skewed_bytes, num_threads=32)


@pytest.fixture(scope="module")
def sidecar(encoded):
    return build_sidecar(encoded.metadata, encoded.words)


class TestSidecar:
    def test_roundtrip(self, encoded, sidecar, skewed_bytes, model11):
        md = parse_sidecar(sidecar, encoded.words)
        res = RecoilDecoder(model11).decode(
            encoded.words, encoded.final_states, md
        )
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_legacy_decoder_ignores_sidecar(
        self, encoded, skewed_bytes, model11
    ):
        """The host stream is standard interleaved rANS — legacy
        decoders need not know the sidecar exists (the §6 drop-in
        claim)."""
        out = InterleavedDecoder(model11).decode(
            encoded.words, encoded.final_states, encoded.num_symbols
        )
        assert np.array_equal(out, skewed_bytes)

    def test_parse_without_payload_skips_binding(self, sidecar):
        md = parse_sidecar(sidecar)
        assert md.num_threads == 32

    def test_wrong_payload_rejected(self, encoded, sidecar, model11):
        other = InterleavedEncoder(model11).encode(
            np.zeros(1000, dtype=np.uint8)
        )
        with pytest.raises(ContainerError):
            parse_sidecar(sidecar, other.words)

    def test_corrupt_payload_rejected(self, encoded, sidecar):
        bad = encoded.words.copy()
        bad[len(bad) // 2] ^= 0x8000
        with pytest.raises(ContainerError):
            parse_sidecar(sidecar, bad)

    def test_bad_magic(self, sidecar):
        with pytest.raises(ContainerError):
            parse_sidecar(b"WHAT" + sidecar[4:])

    def test_shrink_detached(self, encoded, sidecar, skewed_bytes, model11):
        """The server can shrink without holding the payload at all."""
        small = shrink_sidecar(sidecar, 4)
        assert len(small) < len(sidecar)
        md = parse_sidecar(small, encoded.words)
        assert md.num_threads <= 4
        res = RecoilDecoder(model11).decode(
            encoded.words, encoded.final_states, md
        )
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_shrink_requires_sidecar(self):
        with pytest.raises(ContainerError):
            shrink_sidecar(b"RCL1xxxxxxxx", 4)

    def test_checksum_sensitivity(self, encoded):
        base = payload_checksum(encoded.words)
        flipped = encoded.words.copy()
        flipped[0] ^= 1
        assert payload_checksum(flipped) != base

    def test_checksum_binds_whole_payload(self):
        """A word flipped near the end of a payload well past 512 KiB
        (where the version-1 checksum stopped reading) is refused, not
        decoded silently wrong."""
        data = text_surrogate(1_200_000, 5.29, seed=3)
        model = SymbolModel.from_data(data, 11, alphabet_size=256)
        enc = RecoilEncoder(model).encode(data, num_threads=4)
        assert 2 * len(enc.words) > 3 << 18
        sidecar = build_sidecar(enc.metadata, enc.words)
        flipped = enc.words.copy()
        flipped[-100] ^= 1
        with pytest.raises(ContainerError, match="checksum"):
            parse_sidecar(sidecar, flipped)

    def test_version_1_refused(self, sidecar):
        with pytest.raises(ContainerError, match="version 1"):
            parse_sidecar(sidecar[:4] + b"\x01" + sidecar[5:])

    def test_sidecar_size_is_metadata_only(self, encoded, sidecar):
        """A sidecar costs ~80 bytes/split + 9-byte header — no
        payload duplication."""
        per_split = (len(sidecar) - 9) / max(
            len(encoded.metadata.word_offsets), 1
        )
        assert per_split < 110

    def test_every_prefix_fails_typed(self, sidecar):
        """Parsing or shrinking any truncation of a valid sidecar —
        the header included — raises ContainerError, never a builtin
        or another error class."""
        for n in range(len(sidecar)):
            prefix = sidecar[:n]
            with pytest.raises(ContainerError):
                parse_sidecar(prefix)
            with pytest.raises(ContainerError):
                shrink_sidecar(prefix, 2)
