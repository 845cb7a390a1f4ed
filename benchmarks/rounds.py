"""Alternating timing rounds: how the harnesses estimate a rate.

Every timer runs once untimed (warm-up and its own output check), then
once per round.  The timer order reverses every other round, so a slow
phase of a shared host lands on every timer alike, and each timer
reports the median and quartiles of its per-round rates
(docs/BENCHMARKS.md, common protocol).
"""

from __future__ import annotations

import statistics
import time


def alternating_rounds(timers: dict, rounds: int) -> dict:
    """``{name: (q1, median, q3)}`` of the rates ``timers[name]()``
    returns, over ``rounds`` (at least 2) alternating rounds."""
    if rounds < 2:
        raise ValueError(f"need at least 2 rounds, got {rounds}")
    for timer in timers.values():
        timer()
    samples: dict = {name: [] for name in timers}
    order = list(timers)
    for r in range(rounds):
        for name in order if r % 2 == 0 else order[::-1]:
            samples[name].append(timers[name]())
    return {
        name: tuple(statistics.quantiles(rates, n=4))
        for name, rates in samples.items()
    }


def symbol_rate(fn, check):
    """A timer for :func:`alternating_rounds`: one timed call of
    ``fn() -> symbols``, checked by ``check`` outside the timed region;
    returns symbols/second."""

    def timer() -> float:
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        check(out)
        return len(out) / elapsed

    return timer
