"""Batched content delivery: the paper's serving scenario as a system.

The paper's headline use case (§1, §3.3) is a content-delivery server
that encodes an asset *once* and serves every client class by
real-time metadata shrinking.  This package turns that from a script
into a subsystem:

- :mod:`repro.serve.store` — encode-once asset store with an LRU
  shrink cache keyed ``(asset, client_capacity)``;
- :mod:`repro.serve.batcher` — request batching: decompress requests
  that queue while the dispatcher is busy fuse into ONE kernel call
  (cross-request fusion, DESIGN.md §12);
- :mod:`repro.serve.service` — the :class:`RecoilService` facade:
  dispatcher thread, admission control/backpressure bounded by cost
  model estimates;
- :mod:`repro.serve.metrics` — per-request and per-batch counters;
- :mod:`repro.serve.protocol` / :mod:`repro.serve.net` /
  :mod:`repro.serve.client` — the network front-end: a
  length-prefixed wire protocol, a hardened threaded socket server
  (deadlines, shedding, graceful drain), and the backoff-aware
  client (DESIGN.md §16);
- :mod:`repro.serve.loadgen` — open-loop tail-latency harness with
  hostile client personas;
- :mod:`repro.serve.disk` — crash-safe on-disk container store with
  checksummed records, corruption quarantine, and cold-start
  recovery (DESIGN.md §18).
"""

from repro.serve.batcher import DecodeRequest, RequestBatcher
from repro.serve.client import RecoilClient
from repro.serve.disk import DiskStore, RecoveryReport
from repro.serve.metrics import NetMetrics, ServeMetrics
from repro.serve.net import NetConfig, NetServer
from repro.serve.service import RecoilService, ServiceConfig
from repro.serve.store import (
    AssetStore,
    ShrinkCache,
    ShrunkVariant,
    StoredAsset,
)

__all__ = [
    "AssetStore",
    "DecodeRequest",
    "DiskStore",
    "NetConfig",
    "NetMetrics",
    "NetServer",
    "RecoilClient",
    "RecoilService",
    "RecoveryReport",
    "ServeMetrics",
    "ServiceConfig",
    "ShrinkCache",
    "ShrunkVariant",
    "StoredAsset",
]
