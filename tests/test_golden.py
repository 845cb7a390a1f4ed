"""Golden-stream conformance: the corpus pins the wire format.

Every committed container under ``tests/golden/`` must be reproduced
byte-for-byte by today's encoder and decoded byte-for-byte back to its
committed payload — on EVERY kernel backend (numpy and, when a
toolchain is present, compiled, on both C walk bodies).  A failure
here means the wire format moved: either fix the regression or
regenerate deliberately with
``PYTHONPATH=src python tools/make_golden.py`` and review the corpus
diff as a format change.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.api import recoil_shrink
from repro.core.container import parse_container
from repro.core.decoder import RecoilDecoder
from repro.parallel import compiled

from walk_bodies import c_walks
from golden_cases import (
    SHRINK_CAPACITIES,
    build_rans_blob,
    build_tans_blob,
    engine_counters,
    rans_cases,
    tans_cases,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

RANS_CASES = {c["name"]: c for c in rans_cases()}
TANS_CASES = {c["name"]: c for c in tans_cases()}


def _read(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(GOLDEN_DIR, "manifest.json")) as f:
        return json.load(f)


class TestCorpusIntegrity:
    def test_manifest_covers_all_cases(self, manifest):
        names = {e["name"] for e in manifest["cases"]}
        assert names == set(RANS_CASES) | set(TANS_CASES)
        assert len(manifest["cases"]) >= 10

    def test_files_match_manifest_hashes(self, manifest):
        """The committed bytes are what the manifest says they are —
        a corrupted or hand-edited corpus fails before any codec
        runs."""
        for entry in manifest["cases"]:
            blob = _read(f"{entry['name']}.bin")
            expected = _read(f"{entry['name']}.expected.bin")
            assert hashlib.sha256(blob).hexdigest() == entry["blob_sha256"]
            assert len(blob) == entry["blob_bytes"]
            assert (
                hashlib.sha256(expected).hexdigest()
                == entry["expected_sha256"]
            )
            assert len(expected) == entry["expected_bytes"]


@pytest.mark.parametrize("name", sorted(RANS_CASES))
class TestRansGolden:
    def test_encode_byte_exact(self, name, kernel_backend):
        """Today's encoder reproduces the committed container
        byte-for-byte on this kernel backend."""
        case = RANS_CASES[name]
        assert build_rans_blob(case) == _read(f"{name}.bin")

    def test_decode_byte_exact(self, name, decode_backend):
        """The committed container decodes byte-for-byte back to its
        committed payload on this kernel backend."""
        case = RANS_CASES[name]
        blob = _read(f"{name}.bin")
        parsed = parse_container(blob, provider=case["provider"])
        res = RecoilDecoder(case["provider"], lanes=case["lanes"]).decode(
            parsed.words(blob), parsed.final_states, parsed.metadata
        )
        assert res.symbols.tobytes() == _read(f"{name}.expected.bin")

    def test_decode_at_reduced_parallelism(self, name, decode_backend):
        """Combining splits client-side never changes the bytes."""
        case = RANS_CASES[name]
        blob = _read(f"{name}.bin")
        parsed = parse_container(blob, provider=case["provider"])
        res = RecoilDecoder(case["provider"], lanes=case["lanes"]).decode(
            parsed.words(blob),
            parsed.final_states,
            parsed.metadata,
            max_threads=1,
        )
        assert res.symbols.tobytes() == _read(f"{name}.expected.bin")

    def test_shrink_byte_exact(self, name, manifest):
        """Server-side shrinking to every pinned capacity reproduces
        the recorded bytes: which entries ``combine`` keeps is part of
        the wire format."""
        blob = _read(f"{name}.bin")
        (entry,) = [e for e in manifest["cases"] if e["name"] == name]
        pinned = entry["shrink_sha256"]
        assert sorted(map(int, pinned)) == sorted(SHRINK_CAPACITIES)
        for cap in SHRINK_CAPACITIES:
            got = hashlib.sha256(recoil_shrink(blob, cap)).hexdigest()
            assert got == pinned[str(cap)], f"capacity {cap}"

    def test_engine_counters_pinned(self, name, manifest, decode_backend):
        """The decode plan's observable work at every pinned capacity:
        the ``EngineStats`` counters (``lane_util`` and ``wasted_pct``
        are built from them) match the manifest on this kernel."""
        case = RANS_CASES[name]
        blob = _read(f"{name}.bin")
        (entry,) = [e for e in manifest["cases"] if e["name"] == name]
        pinned = entry["engine_stats"]
        assert sorted(map(int, pinned)) == sorted(SHRINK_CAPACITIES)
        for cap in SHRINK_CAPACITIES:
            got = engine_counters(case, blob, cap)
            assert got == pinned[str(cap)], f"capacity {cap}"


@pytest.mark.skipif(
    not compiled.avx2_host(), reason="the C walk has no SIMD body here"
)
@pytest.mark.parametrize("name", ["static_lanes32", "static_splits256"])
def test_simd_body_runs_the_corpus(name):
    """On an AVX2 host the served default's cases run full groups on
    the SIMD body at every pinned capacity, so the byte and counter
    pins above check it, not only the scalar body."""
    case = RANS_CASES[name]
    blob = _read(f"{name}.bin")
    with c_walks() as calls:
        for cap in SHRINK_CAPACITIES:
            engine_counters(case, blob, cap)
    assert len(calls) == len(SHRINK_CAPACITIES) and min(calls) > 0


@pytest.mark.parametrize("name", sorted(TANS_CASES))
class TestTansGolden:
    def test_encode_byte_exact(self, name):
        case = TANS_CASES[name]
        blob, _ = build_tans_blob(case)
        assert blob == _read(f"{name}.bin")

    def test_decode_byte_exact(self, name, kernel_backend):
        """numpy on every host: the same bytes with a C compiler and
        without one."""
        case = TANS_CASES[name]
        _, codec = build_tans_blob(case)
        blob = _read(f"{name}.bin")
        expected = _read(f"{name}.expected.bin")
        for threads in case["threads"]:
            out, _ = codec.decompress(blob, num_threads=threads)
            assert out.astype(np.uint8).tobytes() == expected
