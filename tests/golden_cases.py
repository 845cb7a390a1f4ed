"""Deterministic construction of the golden-stream corpus cases.

Shared between the generator (``tools/make_golden.py``), which writes
the committed containers and expected payloads under ``tests/golden/``,
and the conformance test (``tests/test_golden.py``), which re-derives
every provider/payload from these definitions and asserts byte-exact
encode and decode against the committed files on every kernel backend.

Everything here must stay deterministic: fixed RNG seeds, no
environment dependence.  Changing any case definition (or any code on
the wire path) shows up as a golden mismatch — that is the point; the
corpus pins the wire format.  Regenerate deliberately with
``PYTHONPATH=src python tools/make_golden.py`` and review the diff.
"""

from __future__ import annotations

import numpy as np

from repro.rans.adaptive import IndexedModelProvider, StaticModelProvider
from repro.rans.model import SymbolModel


#: client capacities every rANS case is shrunk to; the manifest pins
#: the sha256 of each shrunk container, so the entries ``combine``
#: keeps are part of the corpus.
SHRINK_CAPACITIES = (1, 2, 3, 4, 7, 16, 64, 1024)


def _exp_bytes(seed: int, n: int, scale: float = 9.0) -> np.ndarray:
    r = np.random.default_rng(seed)
    return np.minimum(np.floor(r.exponential(scale, n)), 255).astype(
        np.uint8
    )


def _static_provider(payload: np.ndarray, quant_bits: int = 11):
    return StaticModelProvider(
        SymbolModel.from_data(payload, quant_bits, alphabet_size=256)
    )


def _adaptive_provider(payload: np.ndarray):
    """Three exponential models cycled per symbol index (the same
    shape the differential suites use)."""
    sym = np.arange(256, dtype=np.float64)
    models = [
        SymbolModel.from_counts(np.exp(-sym / s) * 1_000 + 1, 10)
        for s in (4.0, 12.0, 40.0)
    ]
    ids = (np.arange(len(payload)) // 7) % 3
    return IndexedModelProvider(models, ids)


def rans_cases() -> list[dict]:
    """rANS container cases: ``(name, payload, provider, lanes,
    splits)``.  Providers are rebuilt from the payload each call, so
    generator and test construct identical wire bytes."""
    tiny_model = SymbolModel.from_counts(
        np.array([5, 3, 2, 1], dtype=np.uint32), 8
    )
    cases = []
    for lanes, n, splits in ((1, 300, 4), (4, 500, 8), (32, 800, 16)):
        payload = _exp_bytes(1000 + lanes, n)
        cases.append(
            dict(
                name=f"static_lanes{lanes}",
                payload=payload,
                provider=_static_provider(payload),
                lanes=lanes,
                splits=splits,
            )
        )
    # The split choice at serving density: 256 splits on a 16k-symbol
    # K=32 stream make neighbouring candidate windows overlap, so the
    # ``prev_S`` rule binds (118 of 255 entries survive); 1024 splits
    # on a 3k-symbol K=4 stream leave under one word per boundary.
    for name, lanes, seed, n, splits in (
        ("static_splits256", 32, 6032, 16_000, 256),
        ("static_lanes4_splits1024", 4, 6004, 3_000, 1024),
    ):
        payload = _exp_bytes(seed, n)
        cases.append(
            dict(
                name=name,
                payload=payload,
                provider=_static_provider(payload),
                lanes=lanes,
                splits=splits,
            )
        )
    for lanes, n, splits in ((4, 400, 8), (32, 700, 16)):
        payload = _exp_bytes(2000 + lanes, n)
        cases.append(
            dict(
                name=f"adaptive_lanes{lanes}",
                payload=payload,
                provider=_adaptive_provider(payload),
                lanes=lanes,
                splits=splits,
            )
        )
    n16_payload = _exp_bytes(3000, 600)
    cases.append(
        dict(
            name="static_n16",
            payload=n16_payload,
            provider=_static_provider(n16_payload, quant_bits=16),
            lanes=32,
            splits=8,
        )
    )
    cases.append(
        dict(
            name="static_empty",
            payload=np.empty(0, dtype=np.uint8),
            provider=StaticModelProvider(tiny_model),
            lanes=32,
            splits=1,
        )
    )
    cases.append(
        dict(
            name="static_one",
            payload=np.array([2], dtype=np.uint8),
            provider=StaticModelProvider(tiny_model),
            lanes=32,
            splits=4,
        )
    )
    return cases


def tans_cases() -> list[dict]:
    """tANS (multians) blob cases: ``(name, payload, table_bits,
    threads)`` — ``threads`` is the decode width the test sweeps."""
    return [
        dict(
            name="tans_multians",
            payload=_exp_bytes(4000, 2_000, scale=12.0),
            table_bits=12,
            threads=(1, 16, 64),
        ),
        dict(
            # A large-state table on short chunks: most chunks never
            # synchronize and are absorbed — the collapse point; output
            # must still be byte-exact.
            name="tans_collapse",
            payload=_exp_bytes(5000, 1_500, scale=12.0),
            table_bits=13,
            threads=(64,),
        ),
    ]


def build_rans_blob(case: dict) -> bytes:
    """Encode one rANS case into container bytes (the wire format the
    corpus pins), on the host's kernel."""
    from repro.core.container import build_container
    from repro.core.encoder import RecoilEncoder

    provider = case["provider"]
    encoded = RecoilEncoder(provider, lanes=case["lanes"]).encode(
        case["payload"], case["splits"]
    )
    return build_container(
        encoded, provider=provider, embed_model=provider.is_static
    )


def build_tans_blob(case: dict) -> tuple[bytes, object]:
    """Compress one tANS case; returns ``(blob, codec)``."""
    from repro.tans import MultiansCodec, TansTable

    table = TansTable.from_data(
        case["payload"], case["table_bits"], alphabet_size=256
    )
    codec = MultiansCodec(table)
    return codec.compress(case["payload"]), codec


#: the :class:`~repro.parallel.fused.EngineStats` counters the manifest
#: pins per shrink capacity (``engine_stats``).
ENGINE_COUNTERS = (
    "iterations",
    "symbols_decoded",
    "words_read",
    "tasks",
    "max_task_iterations",
)


def engine_counters(case: dict, blob: bytes, capacity: int) -> dict:
    """The work counters of decoding ``blob`` at ``capacity`` threads
    (``RecoilDecoder.decode(..., max_threads=capacity)``), on the
    host's kernel."""
    from repro.core.container import parse_container
    from repro.core.decoder import RecoilDecoder

    parsed = parse_container(blob, provider=case["provider"])
    stats = RecoilDecoder(case["provider"], lanes=case["lanes"]).decode(
        parsed.words(blob),
        parsed.final_states,
        parsed.metadata,
        max_threads=capacity,
    ).engine_stats
    return {name: getattr(stats, name) for name in ENGINE_COUNTERS}
