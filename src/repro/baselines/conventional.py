"""The Conventional "partitioning symbols" baseline (paper §2.3).

The input symbol sequence is split into ``P`` near-equal contiguous
sub-sequences *before* encoding; each is coded by an independent
32-way interleaved rANS codec.  The bitstreams are merged by
concatenation with an offset table.  Per-partition overhead:

- 32 final states x 32 bits  (128 bytes),
- one 32-bit word-offset table entry (4 bytes).

This is the irreversibility the paper attacks: ``P`` is frozen at
encode time, partitions cannot be combined, and a low-parallelism
decoder still downloads all ``P`` partitions' overhead.

Container layout::

    magic   b"RCVC"
    u8      version (=1)
    u8      flags   (bit 0: static model embedded)
    u8      quant_bits
    uvarint lanes
    uvarint num_symbols
    uvarint num_partitions
    u32 LE  word offset table   (P entries: end offset of each region)
    u32 LE  final states        (P x lanes entries)
    [model blob]
    payload (all partitions' words, concatenated, u16 LE)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitio.varint import decode_uvarint, encode_uvarint
from repro.errors import ContainerError, EncodeError, ModelError
from repro.parallel.buffers import ScratchArena
from repro.parallel.fused import EngineStats, TaskColumns, fused_run
from repro.parallel.workload import WorkloadSummary, summarize_tasks
from repro.rans.adaptive import (
    AdaptiveModelProvider,
    IndexedModelProvider,
    StaticModelProvider,
)
from repro.rans.constants import DEFAULT_LANES
from repro.rans.interleaved import InterleavedEncoder
from repro.rans.model import SymbolModel

MAGIC = b"RCVC"
VERSION = 1
FLAG_STATIC_MODEL = 0x01


def partition_bounds(num_symbols: int, partitions: int) -> list[tuple[int, int]]:
    """Near-equal contiguous [start, end) 0-based partition bounds."""
    if partitions < 1:
        raise EncodeError(f"partitions must be >= 1, got {partitions}")
    size = -(-num_symbols // partitions)
    bounds = []
    start = 0
    while start < num_symbols:
        end = min(start + size, num_symbols)
        bounds.append((start, end))
        start = end
    return bounds or [(0, 0)]


def _slice_provider(
    provider: AdaptiveModelProvider, start: int, end: int
) -> AdaptiveModelProvider:
    """Provider for a partition's local index space (1-based).

    Only the reference (per-partition loop) encode path needs this;
    the fused kernel resolves adaptive models through each task's
    ``start_index`` directly.
    """
    if provider.is_static:
        return provider
    ids = provider.model_ids_for_range(start + 1, end + 1)
    return IndexedModelProvider(provider.models, ids)


@dataclass
class ConventionalEncoded:
    """All partitions of one conventional encode."""

    words: np.ndarray  # concatenated uint16 payload
    word_offsets: np.ndarray  # int64 (P,): end offset of each region
    final_states: np.ndarray  # uint64 (P, lanes)
    bounds: list[tuple[int, int]]
    num_symbols: int
    lanes: int
    quant_bits: int

    @property
    def num_partitions(self) -> int:
        return len(self.bounds)

    @property
    def payload_bytes(self) -> int:
        return 2 * len(self.words)

    @property
    def per_partition_overhead_bytes(self) -> int:
        """States + offset entry, per partition."""
        return 4 * self.lanes + 4


class ConventionalCodec:
    """Encoder/decoder for the partitioning-symbols baseline.

    A codec instance reuses one scratch arena across :meth:`decode`
    calls, so it must not be shared between concurrently decoding
    threads (DESIGN.md §9).
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
        # Scratch reused across calls (DESIGN.md §9), one per kernel.
        self._arena = ScratchArena()
        self._encode_arena = ScratchArena()

    # -- encoding -------------------------------------------------------

    def encode(
        self, data: np.ndarray, partitions: int
    ) -> ConventionalEncoded:
        """Encode all partitions in one fused multi-task kernel call.

        Partitions are independent interleaved coders, so their lane
        states advance as a single ``(P * lanes,)``-wide vector — the
        encode-side twin of the batched decode, and the path where the
        fused kernel's width actually scales (a lone stream is
        sequentially dependent group-to-group).  Bit-identical to
        encoding each partition with the reference loop.
        """
        from repro.parallel.fused_encode import EncodeTask, fused_encode_run

        data = np.ascontiguousarray(data)
        bounds = partition_bounds(len(data), partitions)
        tasks = [
            EncodeTask(data[start:end], start_index=start + 1)
            for start, end in bounds
        ]
        outs = fused_encode_run(
            self.provider, self.lanes, tasks, self._encode_arena
        )
        finals = np.empty((len(bounds), self.lanes), dtype=np.uint64)
        offsets = np.empty(len(bounds), dtype=np.int64)
        total = 0
        for k, out in enumerate(outs):
            finals[k] = out.final_states
            total += len(out.words)
            offsets[k] = total
        words = (
            np.concatenate([o.words for o in outs])
            if outs
            else np.empty(0, dtype=np.uint16)
        )
        return ConventionalEncoded(
            words=words,
            word_offsets=offsets,
            final_states=finals,
            bounds=bounds,
            num_symbols=len(data),
            lanes=self.lanes,
            quant_bits=self.provider.quant_bits,
        )

    def encode_reference(
        self, data: np.ndarray, partitions: int
    ) -> ConventionalEncoded:
        """Per-partition reference-loop encode (differential baseline)."""
        data = np.ascontiguousarray(data)
        bounds = partition_bounds(len(data), partitions)
        word_chunks: list[np.ndarray] = []
        finals = np.empty((len(bounds), self.lanes), dtype=np.uint64)
        offsets = np.empty(len(bounds), dtype=np.int64)
        total = 0
        for k, (start, end) in enumerate(bounds):
            sub_provider = _slice_provider(self.provider, start, end)
            enc = InterleavedEncoder(
                sub_provider, self.lanes
            ).encode_reference(data[start:end])
            word_chunks.append(enc.words)
            finals[k] = enc.final_states
            total += len(enc.words)
            offsets[k] = total
        words = (
            np.concatenate(word_chunks)
            if word_chunks
            else np.empty(0, dtype=np.uint16)
        )
        return ConventionalEncoded(
            words=words,
            word_offsets=offsets,
            final_states=finals,
            bounds=bounds,
            num_symbols=len(data),
            lanes=self.lanes,
            quant_bits=self.provider.quant_bits,
        )

    def compress(self, data: np.ndarray, partitions: int) -> bytes:
        return self.build_container(self.encode(data, partitions))

    # -- decoding -------------------------------------------------------

    def build_tasks(self, encoded: ConventionalEncoded) -> TaskColumns:
        """The decode plan: one task per partition, all lanes live
        from the start, each checking its own region's terminal
        drain."""
        bounds = np.asarray(encoded.bounds, dtype=np.int64).reshape(-1, 2)
        n_local = bounds[:, 1] - bounds[:, 0]
        region_end = np.asarray(encoded.word_offsets, dtype=np.int64)
        return TaskColumns.build(
            self.lanes,
            start_pos=region_end - 1,
            walk_hi=n_local,
            walk_lo=1,
            commit_hi=n_local,
            commit_lo=1,
            global_offset=bounds[:, 0],
            check_terminal=True,
            terminal_pos=np.concatenate(([0], region_end[:-1])) - 1,
            init_task=np.arange(len(bounds)),
            init_states=encoded.final_states,
        )

    def decode(
        self, encoded: ConventionalEncoded
    ) -> tuple[np.ndarray, EngineStats, WorkloadSummary]:
        """Decode all partitions in one fused kernel run."""
        columns = self.build_tasks(encoded)
        out = np.empty(encoded.num_symbols, dtype=self.provider.out_dtype)
        stats = fused_run(
            self.provider, self.lanes, encoded.words, columns, out,
            self._arena,
        )
        return out, stats, summarize_tasks(columns)

    # -- container ------------------------------------------------------

    def build_container(self, encoded: ConventionalEncoded) -> bytes:
        out = bytearray()
        out += MAGIC
        out.append(VERSION)
        flags = FLAG_STATIC_MODEL if self.provider.is_static else 0
        out.append(flags)
        out.append(encoded.quant_bits)
        out += encode_uvarint(encoded.lanes)
        out += encode_uvarint(encoded.num_symbols)
        out += encode_uvarint(encoded.num_partitions)
        out += encoded.word_offsets.astype("<u4").tobytes()
        out += encoded.final_states.astype("<u4").tobytes()
        if self.provider.is_static:
            out += self.provider.models[0].to_bytes()
        out += np.asarray(encoded.words, dtype="<u2").tobytes()
        return bytes(out)

    def parse_container(self, blob: bytes) -> ConventionalEncoded:
        """Parse a container written by :meth:`build_container`.

        The error surface is strict, like
        :func:`repro.core.container.parse_container`: any malformed
        input — truncation, bit flips, nonsense length fields, lanes
        or a model other than this codec's — raises
        :class:`ContainerError`, never a builtin.
        """
        try:
            return self._parse_container(blob)
        except ContainerError:
            raise
        except (EncodeError, ModelError) as exc:
            raise ContainerError(f"malformed container: {exc}") from exc
        except (
            ValueError,
            IndexError,
            KeyError,
            OverflowError,
            MemoryError,
        ) as exc:
            raise ContainerError(
                f"malformed container ({type(exc).__name__}: {exc})"
            ) from exc

    def _parse_container(self, blob: bytes) -> ConventionalEncoded:
        if blob[:4] != MAGIC:
            raise ContainerError(f"bad magic {blob[:4]!r}")
        if len(blob) < 7:
            raise ContainerError("truncated header")
        if blob[4] != VERSION:
            raise ContainerError(f"unsupported version {blob[4]}")
        flags = blob[5]
        quant_bits = blob[6]
        pos = 7
        lanes, pos = decode_uvarint(blob, pos)
        num_symbols, pos = decode_uvarint(blob, pos)
        partitions, pos = decode_uvarint(blob, pos)
        if lanes != self.lanes:
            raise ContainerError(
                f"container has {lanes} lanes, the codec {self.lanes}"
            )
        if pos + 4 * partitions * (1 + lanes) > len(blob):
            raise ContainerError("truncated offset table or final states")
        bounds = partition_bounds(num_symbols, partitions)
        if len(bounds) != partitions:
            raise ContainerError(
                f"{partitions} partitions for {num_symbols} symbols"
            )
        offsets = np.frombuffer(
            blob, dtype="<u4", count=partitions, offset=pos
        ).astype(np.int64)
        if np.any(np.diff(offsets) < 0):
            raise ContainerError("word offset table is not ascending")
        pos += 4 * partitions
        finals = (
            np.frombuffer(
                blob, dtype="<u4", count=partitions * lanes, offset=pos
            )
            .astype(np.uint64)
            .reshape(partitions, lanes)
        )
        pos += 4 * partitions * lanes
        if flags & FLAG_STATIC_MODEL:
            model, pos = SymbolModel.from_bytes(blob, pos)
            if not self.provider.is_static or model != self.provider.models[0]:
                raise ContainerError(
                    "embedded model disagrees with codec provider"
                )
        num_words = int(offsets[-1])
        if pos + 2 * num_words > len(blob):
            raise ContainerError("truncated payload")
        words = np.frombuffer(blob, dtype="<u2", count=num_words, offset=pos)
        return ConventionalEncoded(
            words=words,
            word_offsets=offsets,
            final_states=finals,
            bounds=bounds,
            num_symbols=num_symbols,
            lanes=lanes,
            quant_bits=quant_bits,
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        return self.decode(self.parse_container(blob))[0]
