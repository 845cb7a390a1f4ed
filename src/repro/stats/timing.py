"""Wall-clock measurement helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Context-manager stopwatch with repeat support."""

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    _start: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        lap = time.perf_counter() - self._start
        self.elapsed += lap
        self.laps.append(lap)

    @property
    def best(self) -> float:
        return min(self.laps) if self.laps else 0.0

    @property
    def mean(self) -> float:
        return self.elapsed / len(self.laps) if self.laps else 0.0


def measure_throughput(
    fn, payload_bytes: int, repeats: int = 3, warmup: int = 1
) -> dict:
    """Run ``fn`` repeatedly; report bytes/second statistics.

    Matches the paper's §5.3 protocol (averaged over runs, excluding
    setup/transfer) at a Python-appropriate repeat count.
    """
    for _ in range(warmup):
        fn()
    t = Timer()
    for _ in range(repeats):
        with t:
            fn()
    return {
        "mean_seconds": t.mean,
        "best_seconds": t.best,
        "mean_bytes_per_second": payload_bytes / t.mean if t.mean else 0.0,
        "best_bytes_per_second": payload_bytes / t.best if t.best else 0.0,
    }

