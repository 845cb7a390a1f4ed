"""Scratch-buffer arena for the hot decode/encode loops.

The vectorized kernels run thousands of short numpy operations over
small ``(tasks, lanes)`` arrays; allocating fresh temporaries on every
iteration makes the allocator — not the arithmetic — the bottleneck.
An arena hands out named preallocated buffers that are reused across
iterations *and* across calls (DESIGN.md §9: buffer-reuse rules).

Rules:

- One arena per thread, owned here: the kernels fetch the calling
  thread's arena themselves (:func:`thread_arena`), so no caller
  passes or owns one, and any codec instance may be shared between
  threads.  The differential references build a fresh arena per call
  and so stay independent of the kernels they check.
- Arena buffers never escape the owning kernel: anything returned to
  a caller is freshly allocated or an explicit compacting copy.
- Buffers are keyed by name, one per name; a request with a
  different shape or dtype reallocates that slot (streams of varying
  size simply reuse the largest-seen allocation via
  ``get_at_least``).  A thread's arena lives as long as the thread,
  so no name may depend on the call's geometry.
"""

from __future__ import annotations

import threading

import numpy as np


class ScratchArena:
    """Named, reusable scratch buffers (uninitialized contents)."""

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized buffer of exactly ``shape`` / ``dtype``.

        Contents are unspecified — callers must fully overwrite before
        reading.
        """
        dtype = np.dtype(dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype)
            self._bufs[name] = buf
        return buf

    def get_at_least(self, name: str, length: int, dtype) -> np.ndarray:
        """A 1-D buffer of at least ``length`` elements (grown
        geometrically so repeated calls with drifting sizes do not
        reallocate every time).  Returns the full backing buffer;
        callers slice to the length they need."""
        dtype = np.dtype(dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.dtype != dtype or buf.shape[0] < length:
            cap = max(length, 2 * (buf.shape[0] if buf is not None else 0))
            buf = np.empty(cap, dtype)
            self._bufs[name] = buf
        return buf


_local = threading.local()


def thread_arena() -> ScratchArena:
    """The calling thread's arena, created on its first use and freed
    with the thread."""
    arena = getattr(_local, "arena", None)
    if arena is None:
        arena = _local.arena = ScratchArena()
    return arena
