"""Shared fixtures for the benchmark harness.

Benchmarks run on small dataset slices (the ``ci`` profile and below)
so ``pytest benchmarks/ --benchmark-only`` completes in minutes; the
full-scale regeneration path is ``recoil-bench --profile default``.
Each bench module regenerates one paper table/figure's *numbers* (size
deltas, throughput projections) and additionally times the hot
operations with pytest-benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import exponential_bytes, text_surrogate
from repro.parallel import compiled
from repro.rans.adaptive import StaticModelProvider
from repro.rans.model import SymbolModel


@pytest.fixture(scope="session", autouse=True)
def warm_kernels() -> None:
    """Build and load the compiled kernels before any timing, so no
    compile lands in a benchmark round (DESIGN.md §19)."""
    compiled.warm_up()


@pytest.fixture(scope="session")
def bench_bytes() -> np.ndarray:
    """300 KB of enwik-like bytes — the standard bench payload."""
    return text_surrogate(300_000, target_entropy=5.29, seed=77)


@pytest.fixture(scope="session")
def bench_rand() -> np.ndarray:
    """300 KB of rand_100-like bytes."""
    return exponential_bytes(300_000, lam=100, seed=78)


@pytest.fixture(scope="session")
def bench_model(bench_bytes) -> SymbolModel:
    return SymbolModel.from_data(bench_bytes, 11, alphabet_size=256)


@pytest.fixture(scope="session")
def bench_provider(bench_model) -> StaticModelProvider:
    return StaticModelProvider(bench_model)
