"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np
import pytest

from repro.parallel import compiled
from repro.rans.adaptive import StaticModelProvider
from repro.rans.model import SymbolModel

from walk_bodies import c_walks

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

#: decode kernels: the two above, plus the compiled walk with its
#: scalar body forced (``"compiled_scalar"``).  On an AVX2 host
#: ``"compiled"`` runs full interleave groups on the SIMD body
#: (DESIGN.md §19), so the decode suites check both C bodies.
DECODE_KERNELS = KERNELS + [
    pytest.param("compiled_scalar", marks=needs_compiled)
]


@contextlib.contextmanager
def running_on(kernel: str):
    """Run the body on ``kernel``.  No call takes a kernel: host
    detection picks it (DESIGN.md §19).  ``"compiled"`` is what a host
    with a C compiler runs (warmed up front, so no test ever times a
    first-use build), and ``"compiled_scalar"`` the same with the C
    walk's scalar body forced (``walk_bodies.c_walks``); ``"numpy"`` is
    reached the way CI's fallback leg reaches it, by acting as a host
    without one — ``REPRO_COMPILED_TOOLCHAIN=none`` plus a
    re-detection."""
    if kernel in ("compiled", "compiled_scalar"):
        assert compiled.warm_up() == "compiled"
        body = (
            c_walks(scalar=True) if kernel == "compiled_scalar"
            else contextlib.nullcontext()
        )
        with body:
            yield kernel
        return
    env = "REPRO_COMPILED_TOOLCHAIN"
    saved = os.environ.get(env)
    os.environ[env] = "none"
    compiled.reset_for_tests()
    try:
        yield kernel
    finally:
        if saved is None:
            del os.environ[env]
        else:
            os.environ[env] = saved
        compiled.reset_for_tests()


@pytest.fixture(params=KERNELS)
def kernel_backend(request):
    """``"numpy"`` or ``"compiled"``: the test body runs on that
    kernel (:func:`running_on`)."""
    with running_on(request.param) as kernel:
        yield kernel


@pytest.fixture(params=DECODE_KERNELS)
def decode_backend(request):
    """``"numpy"``, ``"compiled"`` or ``"compiled_scalar"``: the test
    body decodes on that kernel and C body (:func:`running_on`)."""
    with running_on(request.param) as kernel:
        yield kernel


class ParkedDispatcher:
    """Hold a service's dispatcher inside a batch, so submits queue.

    Entering submits one request (``name`` at ``capacity``: the
    *blocker*) and wraps the instance's ``_run_batch`` so that batch,
    once decoded, blocks on an event until the ``with`` block exits.
    Requests submitted meanwhile wait in the batcher and go out as the
    next batches the moment the dispatcher is free again — no timer
    decides what queues.  The blocker's fault-point hits all land
    before the block's body runs, so fault rules armed there never see
    it; it stays in flight (holding admission budget) until release.
    """

    def __init__(self, service, name: str, capacity: int = 4) -> None:
        self.service = service
        self.name = name
        self.capacity = capacity
        self.blocker = None
        self._parked = threading.Event()
        self._release = threading.Event()

    def __enter__(self) -> "ParkedDispatcher":
        run_batch = self.service._run_batch

        def park(batch):
            result = run_batch(batch)
            if not self._parked.is_set():
                self._parked.set()
                self._release.wait(60)
            return result

        self.service._run_batch = park
        self.blocker = self.service.submit(self.name, self.capacity)
        assert self._parked.wait(60), "the dispatcher never parked"
        return self

    def __exit__(self, *exc) -> None:
        self._release.set()
        del self.service._run_batch

    @property
    def queued(self) -> int:
        """Requests waiting in the batcher (call under the service's
        condition variable, as :meth:`wait_until` does)."""
        return len(self.service._batcher)

    def wait_until(self, predicate) -> None:
        """Block until ``predicate()`` holds, re-checked under the
        service's condition variable each time it is notified (every
        submit, expiry and close notifies it)."""
        with self.service._cond:
            assert self.service._cond.wait_for(predicate, 60)


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
