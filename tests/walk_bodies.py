"""The one way the tests and ``benchmarks/bench_fused.py`` reach and
watch the compiled decode walk's two bodies (DESIGN.md §19).

No call takes a body: an AVX2 host runs full interleave groups on the
SIMD body.  :func:`c_walks` reaches the scalar body through the
``packed`` argument of the internal ``compiled.rans_walk`` call, and
reads the SIMD-group counter that call returns, which stays outside
``EngineStats``.
"""

from __future__ import annotations

import contextlib

from repro.parallel import compiled


@contextlib.contextmanager
def c_walks(scalar: bool = False):
    """Watch every compiled walk call in the block: with ``scalar``
    each gets ``packed=None``, which runs it on the scalar body; the
    yielded list gets each call's number of groups on the SIMD body."""
    walk = compiled.rans_walk
    groups: list[int] = []

    def call(*args, **kwargs):
        if scalar:
            kwargs["packed"] = None
        counters = walk(*args, **kwargs)
        groups.append(int(counters[3]))
        return counters

    compiled.rans_walk = call
    try:
        yield groups
    finally:
        compiled.rans_walk = walk
