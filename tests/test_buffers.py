"""Scratch ownership: one arena per thread, held by the kernels.

No codec instance carries scratch, so one instance may serve several
threads at once (DESIGN.md §9), and a thread reuses its own scratch
from call to call without growing it per geometry.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import needs_compiled, running_on
from repro.baselines import ConventionalCodec
from repro.core import RecoilCodec, recoil_compress
from repro.core.decoder import RecoilDecoder
from repro.parallel.buffers import thread_arena
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder

THREADS = 4
SIZES = (50_000, 31_000, 12_003, 40_017)


def _race(fn, inputs) -> list[list]:
    """Call ``fn`` on every input from :data:`THREADS` threads started
    together (more threads than a small host has cores, switching
    often), each walking the inputs from its own offset, twice, so
    concurrent calls differ in geometry; returns each thread's last
    results, in input order."""
    barrier = threading.Barrier(THREADS)

    def worker(t: int) -> list:
        barrier.wait(timeout=60)
        out = [None] * len(inputs)
        for k in range(2 * len(inputs)):
            i = (k + t) % len(inputs)
            out[i] = fn(inputs[i])
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            return list(pool.map(worker, range(THREADS), timeout=300))
    finally:
        sys.setswitchinterval(interval)


def _in_thread(fn):
    """``fn()`` on a fresh thread, so it starts from an empty arena."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=300)


def _encoded(r) -> tuple[bytes, ...]:
    ev = r.events
    return (
        r.words.tobytes(), r.final_states.tobytes(),
        ev.symbol_index.tobytes(), ev.lane.tobytes(),
        ev.state_after.tobytes(),
    )


def _shared_instance_cases(model, data):
    """``(fn, inputs)`` per shared instance: one call, its bytes."""
    inputs = [data[:n] for n in SIZES]
    enc = InterleavedEncoder(model)
    recoil = RecoilCodec(model)
    conventional = ConventionalCodec(model)
    streams = [enc.encode(d) for d in inputs]
    containers = [recoil.encode(d, 64) for d in inputs]
    idec = InterleavedDecoder(model)
    rdec = RecoilDecoder(model)
    return {
        "InterleavedEncoder": (
            lambda d: _encoded(enc.encode(d, record_events=True)), inputs,
        ),
        "RecoilCodec": (lambda d: recoil.compress(d, 64), inputs),
        # Partition counts vary with the input: 16, 10, 4 and 13.
        "ConventionalCodec": (
            lambda d: conventional.compress(d, len(d) // 3_000), inputs,
        ),
        "InterleavedDecoder": (
            lambda s: idec.decode(
                s.words, s.final_states, s.num_symbols
            ).tobytes(),
            streams,
        ),
        "RecoilDecoder": (
            lambda c: rdec.decode(
                c.words, c.final_states, c.metadata
            ).symbols.tobytes(),
            containers,
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "InterleavedEncoder", "RecoilCodec", "ConventionalCodec",
        "InterleavedDecoder", "RecoilDecoder",
    ],
)
def test_one_instance_shared_by_threads(
    case, model11, skewed_bytes, kernel_backend
):
    """Every codec instance works from several threads at once, bit
    for bit like serial calls, on both kernels."""
    fn, inputs = _shared_instance_cases(model11, skewed_bytes)[case]
    serial = [fn(x) for x in inputs]
    for results in _race(fn, inputs):
        assert results == serial


def _compress_twice(data) -> tuple[dict, dict]:
    """A thread's arena after one and after two ``recoil_compress``
    calls, each with a fresh codec."""

    def two_calls():
        arena = thread_arena()
        recoil_compress(data[:40_000], num_splits=64)
        first = dict(arena._bufs)
        recoil_compress(data[9_000:], num_splits=64)
        return first, dict(arena._bufs)

    return _in_thread(two_calls)


def test_recoil_compress_reuses_the_threads_encode_scratch(skewed_bytes):
    """A fresh codec per call still encodes on its thread's scratch
    (the numpy encode's blocks): the second call gets the first call's
    buffers back."""
    with running_on("numpy"):
        first, after = _compress_twice(skewed_bytes)
    assert first
    assert all(after[name] is buf for name, buf in first.items())


@needs_compiled
def test_compiled_compress_stages_nothing(skewed_bytes):
    """The C encode and split scan take no arena scratch: every buffer
    they write is a fresh result (DESIGN.md §9, §10)."""
    with running_on("compiled"):
        assert _compress_twice(skewed_bytes) == ({}, {})


def test_encode_scratch_does_not_grow_with_widths(
    model11, skewed_bytes
):
    """Conventional encodes at 1 to 64 partitions (64 fused widths) on
    the numpy kernel leave one buffer per name, and about the bytes one
    width needs."""
    codec = ConventionalCodec(model11)

    def held(arena) -> tuple[set, int]:
        return set(arena._bufs), sum(b.nbytes for b in arena._bufs.values())

    def sweep():
        arena = thread_arena()
        codec.encode(skewed_bytes, 1)
        one = held(arena)
        for partitions in range(2, 65):
            codec.encode(skewed_bytes, partitions)
        return one, held(arena)

    with running_on("numpy"):
        (names_one, bytes_one), (names_all, bytes_all) = _in_thread(sweep)
    assert names_all == names_one
    assert bytes_all < 1.25 * bytes_one
