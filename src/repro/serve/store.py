"""Asset store: encode once, persist durably, shrink per request.

The paper's serving story (§1, §3.3) is *encode once at the maximum
parallelism the server will ever support, then adapt per request by
dropping metadata*.  The store realizes both halves, tiered across
memory and disk (DESIGN.md §18):

- :meth:`AssetStore.put` encodes an asset exactly once (at
  ``num_splits`` parallelism) and keeps the parsed container alongside
  the raw bytes, so serving never re-parses;
- with a ``store_dir``, every ingested container is also persisted
  crash-safely (:class:`~repro.serve.disk.DiskStore`) — a restarted
  store recovers its assets bit-identically, quarantining anything
  that fails verification;
- a ``resident_bytes`` budget bounds the hot tier: least-recently-used
  assets drop their parsed in-memory form and hydrate back from disk
  on demand, bit-identically (only assets that persisted cleanly are
  evictable — an unpersisted asset is pinned resident);
- :meth:`AssetStore.shrunk` answers ``(asset, client_capacity)``
  requests from an LRU :class:`ShrinkCache` — a repeated shrink for a
  known client class costs one dict hit, and a miss costs only the
  metadata combine + splice (the payload never moves).

A cached :class:`ShrunkVariant` carries the servable container bytes
*and* the prebuilt decode plan for that capacity — one
:class:`~repro.parallel.fused.TaskColumns`, built straight from the
combined metadata arrays — so the request batcher can go straight to
the fused kernel.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import faults, trace
from repro.core.container import ParsedContainer, parse_container
from repro.core.decoder import build_thread_tasks
from repro.core.metadata import RecoilMetadata
from repro.core.serialization import serialize_metadata
from repro.errors import MetadataError, ServeError
from repro.parallel.costmodel import estimate_task_symbols
from repro.parallel.fused import TaskColumns
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.model import SymbolModel
from repro.serve.disk import DiskStore
from repro.serve.protocol import asset_name_problem

#: consecutive persist failures before the store stops trying the
#: disk and degrades to memory-only (a full or dying disk fails every
#: write — re-arming per put would just multiply fsync latency).
PERSIST_FAILURE_LIMIT = 3


@dataclass(frozen=True)
class ShrunkVariant:
    """One (asset, capacity) serving variant.

    ``blob`` is what goes on the wire; ``columns`` is the decode plan
    the fused kernel runs — both derived from the same combined
    metadata, computed once and cached.  ``asset`` is the exact stored
    asset the variant was derived from: consumers must pair the plan
    with *its* word stream (a later ``put`` may replace the name).
    """

    capacity: int
    blob: bytes
    metadata: RecoilMetadata
    columns: TaskColumns = field(repr=False)
    #: admission-control weight: total walked symbols of ``columns``
    #: (:func:`repro.parallel.costmodel.estimate_task_symbols`).
    cost_symbols: int
    asset: "StoredAsset" = field(repr=False, default=None)


@dataclass
class StoredAsset:
    """A master container plus everything serving needs pre-derived."""

    name: str
    blob: bytes
    parsed: ParsedContainer
    provider: AdaptiveModelProvider
    words: np.ndarray  # payload view over ``blob`` (zero-copy)
    out_dtype: np.dtype
    #: not evictable from the resident tier: the asset has no durable
    #: on-disk copy (out-of-band model provider, persist failure, or
    #: no disk tier at all), so dropping it would lose it.
    pinned: bool = False

    @property
    def num_symbols(self) -> int:
        return self.parsed.num_symbols

    @property
    def lanes(self) -> int:
        return self.parsed.lanes

    @property
    def max_capacity(self) -> int:
        """Threads supported by the master metadata."""
        return self.parsed.metadata.num_threads

    def shrink(self, capacity: int) -> ShrunkVariant:
        """Compute one serving variant (uncached; see
        :meth:`AssetStore.shrunk`).

        The blob is spliced, never re-encoded: master head + combined
        metadata + identical payload (§3.3), copied from views of the
        one resident master.
        """
        if capacity < 1:
            raise MetadataError(
                f"client capacity must be >= 1, got {capacity}"
            )
        md = self.parsed.metadata.combine(capacity)
        blob = self.parsed.splice(self.blob, serialize_metadata(md))
        columns = build_thread_tasks(
            md, self.parsed.num_words, self.parsed.final_states
        )
        return ShrunkVariant(
            capacity=capacity,
            blob=blob,
            metadata=md,
            columns=columns,
            cost_symbols=int(estimate_task_symbols(columns).sum()),
            asset=self,
        )


class ShrinkCache:
    """Thread-safe LRU of :class:`ShrunkVariant` keyed by
    ``(asset_name, capacity)``, bounded by entry count *and* total
    variant bytes.

    Variants vary by orders of magnitude (a 1-thread shrink of a huge
    master vs. a tiny asset), so an entry cap alone lets a handful of
    big variants occupy unbounded memory.  ``max_bytes`` bounds the
    sum of cached blob bytes; evictions are counted separately by
    cause (``evictions_capacity`` vs. ``evictions_bytes``), with
    ``evictions`` keeping the combined total.
    """

    def __init__(
        self, max_entries: int = 256, max_bytes: int | None = None
    ) -> None:
        if max_entries < 1:
            raise ServeError(
                f"shrink cache needs >= 1 entry, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ServeError(
                f"shrink cache byte bound must be >= 1, got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], ShrunkVariant] = (
            OrderedDict()
        )
        self.bytes = 0
        self.evictions = 0
        self.evictions_capacity = 0
        self.evictions_bytes = 0

    def get(self, key: tuple[str, int]) -> ShrunkVariant | None:
        with self._lock:
            variant = self._entries.get(key)
            if variant is not None:
                self._entries.move_to_end(key)
            return variant

    def put(self, key: tuple[str, int], variant: ShrunkVariant) -> None:
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self.bytes -= len(old.blob)
            self._entries[key] = variant
            self.bytes += len(variant.blob)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                self.bytes -= len(evicted.blob)
                self.evictions += 1
                self.evictions_capacity += 1
            while (
                self.max_bytes is not None
                and self.bytes > self.max_bytes
                and self._entries
            ):
                _, evicted = self._entries.popitem(last=False)
                self.bytes -= len(evicted.blob)
                self.evictions += 1
                self.evictions_bytes += 1

    def invalidate(self, name: str) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == name]:
                self.bytes -= len(self._entries.pop(key).blob)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "evictions": {
                    "total": self.evictions,
                    "capacity": self.evictions_capacity,
                    "bytes": self.evictions_bytes,
                },
            }


class AssetStore:
    """Named compressed assets, encoded once, served many times.

    Without ``store_dir`` this is the pure in-memory store of old.
    With it, ingest persists crash-safely to a
    :class:`~repro.serve.disk.DiskStore`, startup recovers whatever
    verifies there, and ``resident_bytes`` bounds the hot tier (LRU
    eviction to disk, hydrate-on-demand).  A store directory that
    cannot be opened, or :data:`PERSIST_FAILURE_LIMIT` consecutive
    persist failures (disk full mid-run), degrade the store to
    memory-only: serving continues, ``memory_only``/counters say so,
    and :meth:`repro.serve.service.RecoilService.metrics_snapshot`
    surfaces it under ``"resilience"``.
    """

    def __init__(
        self,
        shrink_cache_entries: int = 256,
        default_num_splits: int = 1024,
        default_quant_bits: int = 11,
        lanes: int = DEFAULT_LANES,
        shrink_cache_bytes: int | None = None,
        store_dir: str | None = None,
        resident_bytes: int | None = None,
    ) -> None:
        if resident_bytes is not None and resident_bytes < 1:
            raise ServeError(
                f"resident_bytes must be >= 1, got {resident_bytes}"
            )
        self.cache = ShrinkCache(
            shrink_cache_entries, max_bytes=shrink_cache_bytes
        )
        self.default_num_splits = default_num_splits
        self.default_quant_bits = default_quant_bits
        self.lanes = lanes
        self.resident_budget_bytes = resident_bytes
        self._lock = threading.Lock()
        self._assets: OrderedDict[str, StoredAsset] = OrderedDict()
        self._resident_blob_bytes = 0
        # -- tier counters ---------------------------------------------
        self.resident_hits = 0
        self.hydrations = 0
        self.evictions = 0
        self.persist_failures = 0
        self._consecutive_persist_failures = 0
        self.store_degradations = 0
        self.memory_only = False
        self.degradation_reason: str | None = None
        self.disk: DiskStore | None = None
        self.recovery = None
        if store_dir is not None:
            try:
                self.disk = DiskStore(store_dir)
            except OSError as exc:
                self._degrade_to_memory(f"store dir unusable: {exc}")
            else:
                self.recovery = self.disk.last_recovery

    # -- degradation ---------------------------------------------------

    def _degrade_to_memory(self, reason: str) -> None:
        if not self.memory_only:
            self.memory_only = True
            self.store_degradations += 1
            self.degradation_reason = reason

    # -- ingest --------------------------------------------------------

    def put(
        self,
        name: str,
        data: np.ndarray,
        num_splits: int | None = None,
        quant_bits: int | None = None,
        model: SymbolModel | None = None,
    ) -> StoredAsset:
        """Encode ``data`` once at maximum parallelism and store it."""
        from repro.core.api import recoil_compress

        self._check_name(name)
        faults.fire(faults.STORE_ENCODE)
        blob = recoil_compress(
            np.asarray(data),
            num_splits=(
                self.default_num_splits if num_splits is None else num_splits
            ),
            quant_bits=(
                self.default_quant_bits if quant_bits is None else quant_bits
            ),
            model=model,
            lanes=self.lanes,
        )
        return self.put_container(name, blob)

    @staticmethod
    def _check_name(name: str) -> None:
        problem = asset_name_problem(name)
        if problem is not None:
            raise ServeError(problem)

    def put_container(
        self,
        name: str,
        blob: bytes,
        provider: AdaptiveModelProvider | None = None,
    ) -> StoredAsset:
        """Store an already-encoded container under ``name``.

        With a disk tier, the container is persisted durably before
        the asset is published (a ``put`` that returned is crash-safe
        unless the store reports a persist failure).  Assets whose
        model travels out of band (``provider=``) cannot rehydrate
        from bytes alone and stay memory-pinned.
        """
        self._check_name(name)
        asset = self._parse_asset(name, blob, provider)
        asset.pinned = provider is not None
        if self.disk is not None and provider is None:
            if not self._persist(name, blob):
                asset.pinned = True
        else:
            asset.pinned = True
        self._install(asset)
        return asset

    def _persist(self, name: str, blob: bytes) -> bool:
        """Durable write to the disk tier; ``False`` (and counters) on
        failure instead of failing the ingest."""
        if self.memory_only:
            return False
        t0 = time.perf_counter()
        try:
            self.disk.put(name, blob)
        except OSError as exc:
            with self._lock:
                self.persist_failures += 1
                self._consecutive_persist_failures += 1
                exhausted = (
                    self._consecutive_persist_failures
                    >= PERSIST_FAILURE_LIMIT
                )
            if exhausted:
                self._degrade_to_memory(
                    f"{PERSIST_FAILURE_LIMIT} consecutive persist "
                    f"failures (last: {exc})"
                )
            return False
        with self._lock:
            self._consecutive_persist_failures = 0
        if trace.enabled():
            trace.record_span(
                "store.persist",
                t0,
                time.perf_counter(),
                cat="store",
                args={"asset": name, "bytes": len(blob)},
            )
        return True

    def _parse_asset(
        self,
        name: str,
        blob: bytes,
        provider: AdaptiveModelProvider | None,
    ) -> StoredAsset:
        parsed = parse_container(blob, provider=provider)
        return StoredAsset(
            name=name,
            blob=blob,
            parsed=parsed,
            provider=parsed.provider,
            words=parsed.words(blob),
            out_dtype=parsed.provider.out_dtype,
        )

    def _install(self, asset: StoredAsset) -> None:
        """Publish an asset into the resident tier (MRU position) and
        evict over-budget LRU entries that have a durable disk copy."""
        name = asset.name
        with self._lock:
            old = self._assets.pop(name, None)
            if old is not None:
                self._resident_blob_bytes -= len(old.blob)
            self._assets[name] = asset
            self._resident_blob_bytes += len(asset.blob)
            evicted = self._evict_over_budget_locked(keep=name)
        if old is not None:
            self.cache.invalidate(name)
        for evicted_name in evicted:
            self.cache.invalidate(evicted_name)

    def _evict_over_budget_locked(self, keep: str) -> list[str]:
        """Drop LRU resident assets while over the byte budget.

        Pinned assets (no durable copy) and ``keep`` (the entry being
        published/hydrated — evicting it would livelock ``shrunk``)
        never evict.  Caller holds the lock; returns evicted names so
        the caller can invalidate their cached shrinks outside it.
        """
        budget = self.resident_budget_bytes
        evicted: list[str] = []
        if budget is None:
            return evicted
        while self._resident_blob_bytes > budget:
            victim = None
            for candidate, asset in self._assets.items():
                if candidate == keep or asset.pinned:
                    continue
                victim = candidate
                break
            if victim is None:
                break
            asset = self._assets.pop(victim)
            self._resident_blob_bytes -= len(asset.blob)
            self.evictions += 1
            evicted.append(victim)
        return evicted

    # -- lookup --------------------------------------------------------

    def get(self, name: str) -> StoredAsset:
        """The resident asset for ``name``, hydrating it from the disk
        tier (bit-identically — the record CRC proves it) if it was
        evicted or belongs to a recovered cold start.

        :raises ServeError: unknown asset.
        :raises IntegrityError: the on-disk record failed verification
            (quarantined; the asset is gone until re-ingested).
        """
        with self._lock:
            asset = self._assets.get(name)
            if asset is not None:
                self._assets.move_to_end(name)
                self.resident_hits += 1
                return asset
        if self.disk is None or name not in self.disk:
            raise ServeError(f"unknown asset {name!r}")
        return self._hydrate(name)

    def _hydrate(self, name: str) -> StoredAsset:
        t0 = time.perf_counter()
        blob = self.disk.read(name)  # IntegrityError quarantines
        asset = self._parse_asset(name, blob, provider=None)
        with self._lock:
            raced = self._assets.get(name)
            if raced is not None:
                # A concurrent hydrate/put won the publish; use theirs.
                self._assets.move_to_end(name)
                return raced
            self._assets[name] = asset
            self._resident_blob_bytes += len(asset.blob)
            self.hydrations += 1
            evicted = self._evict_over_budget_locked(keep=name)
        for evicted_name in evicted:
            self.cache.invalidate(evicted_name)
        if trace.enabled():
            trace.record_span(
                "store.hydrate",
                t0,
                time.perf_counter(),
                cat="store",
                args={"asset": name, "bytes": len(blob)},
            )
        return asset

    def names(self) -> list[str]:
        with self._lock:
            resident = set(self._assets)
        if self.disk is not None:
            resident.update(self.disk.names())
        return sorted(resident)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._assets:
                return True
        return self.disk is not None and name in self.disk

    def __len__(self) -> int:
        return len(self.names())

    # -- metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """JSON-able tier statistics for ``metrics_snapshot()["store"]``."""
        with self._lock:
            resident_assets = len(self._assets)
            resident_bytes = self._resident_blob_bytes
            hits, hydrations = self.resident_hits, self.hydrations
            evictions = self.evictions
            persist_failures = self.persist_failures
        lookups = hits + hydrations
        disk = self.disk
        out = {
            "assets": len(self),
            "resident_assets": resident_assets,
            "resident_bytes": resident_bytes,
            "resident_budget_bytes": self.resident_budget_bytes,
            "resident_hits": hits,
            "hydrations": hydrations,
            "evictions": evictions,
            "tier_hit_rate": (hits / lookups if lookups else 1.0),
            "persist_failures": persist_failures,
            "memory_only": self.memory_only,
            "degradation_reason": self.degradation_reason,
            "disk": disk.counters() if disk is not None else None,
            "recovery": (
                self.recovery.to_dict() if self.recovery is not None else None
            ),
            "shrink_cache": self.cache.snapshot(),
        }
        return out

    # -- serving -------------------------------------------------------

    def shrunk(
        self, name: str, capacity: int
    ) -> tuple[ShrunkVariant, bool]:
        """The serving variant for ``(name, capacity)``.

        Returns ``(variant, cache_hit)``.  Capacities above the
        master's parallelism are clamped to it (combine is a no-op
        there), so all "big client" capacities share one cache entry.
        The returned variant pins the asset it was derived from
        (``variant.asset``) — decode against *that*, not a fresh
        ``get(name)``, or a concurrent ``put`` replacing the name can
        pair old tasks with a new word stream.
        """
        if capacity < 1:
            raise MetadataError(
                f"client capacity must be >= 1, got {capacity}"
            )
        while True:
            asset = self.get(name)
            clamped = min(capacity, asset.max_capacity)
            key = (name, clamped)
            variant = self.cache.get(key)
            if variant is not None and variant.asset is asset:
                return variant, True
            variant = asset.shrink(clamped)
            self.cache.put(key, variant)
            # A concurrent put() may have replaced the asset after our
            # get(): its invalidation can race with the line above, so
            # re-check and recompute rather than serve stale metadata.
            if self.get(name) is asset:
                return variant, False
            self.cache.invalidate(name)
