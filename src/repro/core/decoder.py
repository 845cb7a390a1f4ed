"""The Recoil 3-phase parallel decoder (paper §4.1).

Builds the decode plan — one :class:`~repro.parallel.fused.TaskColumns`
row per split segment, from the metadata's ``S``/``C`` ranges, straight
from its arrays — and executes it on the fused decode kernel
(:func:`~repro.parallel.fused.fused_run`).  The
three phases of §4.1 map onto each task's columns:

- **Synchronization Phase** (§4.1.1): the walk between the split index
  and the sync-complete index, where lanes activate one by one at
  their recorded renormalization points.  Output in this range is not
  committed (``commit_hi = C - 1``).
- **Decoding Phase** (§4.1.2): the committed stretch down to the
  previous split's boundary.
- **Cross-Boundary Decoding Phase** (§4.1.3): the walk continues past
  the previous split's position through *its* synchronization section,
  committing those symbols, and terminates at its sync-complete point.

Because all three phases are just index ranges of one uniform walk,
the kernel needs no per-phase logic — only the commit mask changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.errors import DecodeError
from repro.parallel.fused import EngineStats, TaskColumns, fused_run
from repro.parallel.workload import WorkloadSummary, summarize_tasks
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.model import SymbolModel


@dataclass
class RecoilDecodeResult:
    """Decoded output plus measured work (feeds Figure 7)."""

    symbols: np.ndarray
    engine_stats: EngineStats
    workload: WorkloadSummary


def build_thread_tasks(
    metadata: RecoilMetadata,
    num_words: int,
    final_states: np.ndarray,
) -> TaskColumns:
    """The decode plan: one task per thread, ranges from each entry's
    ``S`` and ``C`` (DESIGN.md §7), built from the metadata arrays in
    a fixed number of array operations.

    Thread ``t`` (0-based, ascending symbol ranges) walks
    ``[C_{t-1}, S_t]`` and commits ``[C_{t-1}, C_t - 1]``, with
    ``C_{-1} = 1``, activating lane ``j`` at its recorded index with
    its recorded state; the final thread walks ``[C_T, N]`` and
    commits the same, decoding from the transmitted final states,
    fully initialized (no synchronization needed).  Only the thread
    whose walk ends at index 1 checks the terminal drain.
    """
    li = metadata.lane_indices
    n, K = li.shape
    C = li.min(axis=1)
    lo = np.concatenate(([1], C))
    N = metadata.num_symbols
    return TaskColumns.build(
        K,
        start_pos=np.append(metadata.word_offsets, num_words - 1),
        walk_hi=np.append(li.max(axis=1), N),
        walk_lo=lo,
        commit_hi=np.append(C - 1, N),
        commit_lo=lo,
        check_terminal=lo == 1,
        init_task=[n],
        init_states=np.reshape(final_states, (1, -1)),
        act_task=np.repeat(np.arange(n), K),
        act_index=li.ravel(),
        act_lane=np.tile(np.arange(K), n),
        act_state=metadata.lane_states.ravel(),
    )


class RecoilDecoder:
    """Massively parallel decoder for Recoil streams.

    Stateless between calls: an instance may be shared between
    threads (the kernel's scratch is per thread, DESIGN.md §9).
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.lanes = lanes

    def decode(
        self,
        words: np.ndarray,
        final_states: np.ndarray,
        metadata: RecoilMetadata,
        max_threads: int | None = None,
    ) -> RecoilDecodeResult:
        """Decode using every split in ``metadata``.

        ``max_threads`` optionally combines splits first (client-side
        equivalent of the server's shrinking — useful when the decoder
        received more metadata than it wants tasks).  Every split runs
        as a task of one fused kernel call on the calling thread: the
        compiled walk on a host with a C compiler, numpy otherwise
        (DESIGN.md §19).  :func:`~repro.parallel.executor.decode_with_pool`
        is the path that spreads the tasks over threads (DESIGN.md §14).
        """
        if metadata.lanes != self.lanes:
            raise DecodeError(
                f"metadata is for {metadata.lanes}-way interleaving, "
                f"decoder configured for {self.lanes}"
            )
        if max_threads is not None:
            metadata = metadata.combine(max_threads)
        columns = build_thread_tasks(metadata, len(words), final_states)
        out = np.empty(metadata.num_symbols, dtype=self.provider.out_dtype)
        stats = fused_run(self.provider, self.lanes, words, columns, out)
        return RecoilDecodeResult(
            symbols=out,
            engine_stats=stats,
            workload=summarize_tasks(columns),
        )
