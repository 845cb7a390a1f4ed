"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import compiled
from repro.rans.adaptive import StaticModelProvider
from repro.rans.model import SymbolModel

#: skip marker for tests that need a working compiled kernel (a C
#: compiler on PATH) — CI's fallback leg runs with
#: ``REPRO_COMPILED_TOOLCHAIN=none`` and must skip these cleanly.
needs_compiled = pytest.mark.skipif(
    not compiled.kernel_available(),
    reason="no compiled-kernel toolchain (C compiler) available",
)

#: inner-loop kernels to parametrize differential suites over.  Every
#: test taking the ``kernel_backend`` fixture runs once per entry and
#: must produce bit-identical streams/outputs on both.
KERNELS = ["numpy", pytest.param("compiled", marks=needs_compiled)]


@pytest.fixture(params=KERNELS)
def kernel_backend(request) -> str:
    """``"numpy"`` or ``"compiled"`` — with the compiled library
    warmed up front so no test ever times a first-use build."""
    if request.param == "compiled":
        assert compiled.warm_up() == "compiled"
    return request.param


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def skewed_bytes() -> np.ndarray:
    """50 k exponential bytes — the workhorse payload."""
    r = np.random.default_rng(1)
    return np.minimum(np.floor(r.exponential(12.0, 50_000)), 255).astype(
        np.uint8
    )


@pytest.fixture(scope="session")
def uniformish_bytes() -> np.ndarray:
    r = np.random.default_rng(2)
    return r.integers(0, 256, 20_000).astype(np.uint8)


@pytest.fixture(scope="session")
def model11(skewed_bytes) -> SymbolModel:
    return SymbolModel.from_data(skewed_bytes, 11, alphabet_size=256)


@pytest.fixture(scope="session")
def model16(skewed_bytes) -> SymbolModel:
    return SymbolModel.from_data(skewed_bytes, 16, alphabet_size=256)


@pytest.fixture(scope="session")
def provider11(model11) -> StaticModelProvider:
    return StaticModelProvider(model11)
