#!/usr/bin/env python
"""Regenerate the golden-stream corpus under ``tests/golden/``.

The corpus pins the wire format: committed container/blob bytes plus
the exact payload each must decode to.  ``tests/test_golden.py``
asserts byte-exact encode AND decode against these files on every
kernel backend, and the manifest's ``shrink_sha256`` pins every rANS
container's shrinks to ``SHRINK_CAPACITIES``, so any change to the
encoders, the container layout, the split selector or ``combine``
that moves a single wire byte fails loudly.  ``engine_stats`` pins
the decode plan's observable work at those capacities: the
``EngineStats`` counters of ``RecoilDecoder.decode(...,
max_threads=cap)``, which both kernels must reproduce.

Run deliberately (a golden diff is a wire-format change and should be
reviewed as one):

    PYTHONPATH=src python tools/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tests")
)

from golden_cases import (  # noqa: E402
    SHRINK_CAPACITIES,
    build_rans_blob,
    build_tans_blob,
    engine_counters,
    rans_cases,
    tans_cases,
)
from repro.core.api import recoil_shrink  # noqa: E402

GOLDEN_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "golden"
)


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    manifest = {"format": 1, "cases": []}
    for case in rans_cases():
        blob = build_rans_blob(case)
        expected = case["payload"].tobytes()
        entry = _write(case["name"], "rans", blob, expected)
        entry["lanes"] = case["lanes"]
        entry["splits"] = case["splits"]
        entry["static"] = bool(case["provider"].is_static)
        entry["shrink_sha256"] = {
            str(cap): _sha(recoil_shrink(blob, cap))
            for cap in SHRINK_CAPACITIES
        }
        entry["engine_stats"] = {
            str(cap): engine_counters(case, blob, cap)
            for cap in SHRINK_CAPACITIES
        }
        manifest["cases"].append(entry)
    for case in tans_cases():
        blob, _ = build_tans_blob(case)
        expected = case["payload"].tobytes()
        entry = _write(case["name"], "tans", blob, expected)
        entry["table_bits"] = case["table_bits"]
        entry["threads"] = list(case["threads"])
        manifest["cases"].append(entry)
    path = os.path.join(GOLDEN_DIR, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(manifest['cases'])} cases to {GOLDEN_DIR}")
    return 0


def _write(name: str, kind: str, blob: bytes, expected: bytes) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.bin"), "wb") as f:
        f.write(blob)
    with open(
        os.path.join(GOLDEN_DIR, f"{name}.expected.bin"), "wb"
    ) as f:
        f.write(expected)
    return {
        "name": name,
        "kind": kind,
        "blob_sha256": _sha(blob),
        "blob_bytes": len(blob),
        "expected_sha256": _sha(expected),
        "expected_bytes": len(expected),
    }


if __name__ == "__main__":
    sys.exit(main())
