"""Seeded inputs, request lists and output checks for the three workloads.

Everything here derives from the workload seed: the same seed gives
byte-identical inputs, master containers, request lists and expected
outputs.  Nothing here talks to a server except through the
``RecoilClient`` handed to :meth:`Workload.execute`.
"""

from __future__ import annotations

import numpy as np

from repro.core import api as core_api
from repro.core import parse_container, recoil_decompress, recoil_shrink
from repro.core.serialization import metadata_size_bytes
from repro.data import exponential_bytes, text_surrogate
from repro.errors import ReproError
from repro.serve.disk import DiskStore

#: order-0 entropy of the decode and ingest inputs, in bits per symbol
#: (the text surrogate that ``recoil serve --demo-assets`` encodes).
ENTROPY = 5.29
#: assets in the decode and fetch catalogues.
ASSETS = 4
#: passes in a request list; the timed phase cycles the list in order.
LIST_PASSES = 64
#: asset names the ingest workload cycles over, so memory and disk stay
#: bounded however long a run is.
INGEST_NAMES = 16
#: leading timed ingest inputs whose masters give the container
#: figures (bits_per_symbol, overhead_pct).  Every ingest input
#: differs, so a fixed prefix is what makes the figures repeat exactly
#: within a seed, however far a run got.
INGEST_FIGURE_REQUESTS = 16
#: first input index of the timed ingest requests; warm-up inputs sit
#: below it, so no timed request re-uploads a warm-up input.
INGEST_TIMED_BASE = 1000

#: failures a request can report instead of verified bytes.
REQUEST_ERRORS = (ReproError, OSError)


def _sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a label path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def verify(got, want) -> bool:
    """Whether a response equals its expected output: decoded symbols
    or container bytes.  The traced run times every call of it as part
    of the client's share of the net layer."""
    if isinstance(want, bytes):
        return got == want
    return np.array_equal(got, want)


def container_figures(blob: bytes) -> dict:
    """Size breakdown of one container (no model needed)."""
    parsed = parse_container(blob, require_model=False)
    md = parsed.metadata
    return {
        "bytes": len(blob),
        "symbols": parsed.num_symbols,
        "payload_bytes": 2 * parsed.num_words,
        "metadata_bytes": metadata_size_bytes(md),
        "sync_symbols": md.sync_overhead_symbols(),
    }


class Request:
    """One timed or warm-up request: which asset, at which capacity.

    ``index`` is the ingest input number (``-1`` for catalogue
    requests)."""

    __slots__ = ("asset", "capacity", "index")

    def __init__(self, asset: str, capacity: int, index: int = -1) -> None:
        self.asset = asset
        self.capacity = capacity
        self.index = index

    @property
    def klass(self) -> str:
        """The request's cost class: capacity, plus the asset for
        catalogue requests (every ingest input is distinct)."""
        if self.index >= 0:
            return f"c{self.capacity}"
        return f"c{self.capacity}/{self.asset}"


class Workload:
    """Common shape of the three workloads (see ``METHODS.md``)."""

    name = ""
    #: symbols per asset or per ingest input.
    symbols = 0
    #: splits every master is encoded at.
    splits = 0
    #: capacity -> requests per asset (catalogue) or per pass (ingest).
    weights: dict[int, int] = {}
    #: every server start gets a new, empty store directory; otherwise
    #: all starts recover the one :meth:`prepare_store` populated.
    fresh_store = True

    def __init__(self, seed: int, plant_mismatch: bool = False) -> None:
        self.seed = seed
        self.plant_mismatch = plant_mismatch
        #: response payload bytes received so far.
        self.bytes_received = 0
        rng = np.random.default_rng(_sub_seed(seed, 1))
        self._passes = [self._one_pass(rng) for _ in range(LIST_PASSES)]

    # -- request list ----------------------------------------------------

    def _pass_items(self) -> list[tuple[str, int]]:
        """The (asset, capacity) slots of one pass, in any order."""
        raise NotImplementedError

    def _one_pass(self, rng) -> list[tuple[str, int]]:
        items = self._pass_items()
        return [items[i] for i in rng.permutation(len(items))]

    @property
    def pass_size(self) -> int:
        return len(self._passes[0])

    @property
    def list_length(self) -> int:
        return self.pass_size * LIST_PASSES

    def warmup_requests(self) -> list[Request]:
        """One pass of requests, outside timing."""
        raise NotImplementedError

    def timed_requests(self):
        """The request list, consumed in order and cycled."""
        raise NotImplementedError

    # -- server side -------------------------------------------------------

    def prepare_store(self, store_dir: str) -> None:
        """Populate the store directory the servers recover from."""

    # -- requests ----------------------------------------------------------

    def execute(self, client, req: Request) -> bool:
        """Run one request; ``True`` when its response verified."""
        raise NotImplementedError

    def verify_deferred(self) -> int:
        """Checks that run after timing; returns how many failed."""
        return 0

    def figures_blobs(self) -> list[bytes]:
        """Containers behind the requests the figures describe."""
        raise NotImplementedError

    def level(self, req: Request) -> str:
        """The cost level ``req`` belongs to, where p50 and p90 should
        sit well inside one level."""
        return f"c{req.capacity}"


class _Catalogue(Workload):
    """A fixed set of assets encoded once and stored before the server
    starts; requests read them back at several capacities."""

    fresh_store = False

    def __init__(self, seed: int, plant_mismatch: bool = False) -> None:
        super().__init__(seed, plant_mismatch)
        self.sources: dict[str, np.ndarray] = {}
        self.masters: dict[str, bytes] = {}
        for a in range(ASSETS):
            name = f"a{a}"
            data = self._asset_data(a, _sub_seed(seed, 2, a))
            self.sources[name] = data
            self.masters[name] = core_api.recoil_compress(
                data, num_splits=self.splits
            )
        #: the served variant behind every (asset, capacity).
        self.variants = {
            (name, cap): recoil_shrink(blob, cap)
            for name, blob in self.masters.items()
            for cap in self.weights
        }

    def _asset_data(self, a: int, seed: int) -> np.ndarray:
        return text_surrogate(self.symbols, ENTROPY, seed=seed)

    def _pass_items(self) -> list[tuple[str, int]]:
        return [
            (f"a{a}", cap)
            for a in range(ASSETS)
            for cap, weight in self.weights.items()
            for _ in range(weight)
        ]

    def warmup_requests(self) -> list[Request]:
        # The first pass holds every (asset, capacity) variant.
        return [Request(a, c) for a, c in self._passes[0]]

    def timed_requests(self):
        while True:
            for one in self._passes:
                for asset, cap in one:
                    yield Request(asset, cap)

    def prepare_store(self, store_dir: str) -> None:
        disk = DiskStore(store_dir)
        for name, blob in self.masters.items():
            disk.put(name, blob)

    def figures_blobs(self) -> list[bytes]:
        # Whole passes hold every class in its designed share, so one
        # pass describes the mix of any run exactly.
        return [self.variants[key] for key in self._passes[0]]


class Decode(_Catalogue):
    name = "decode"
    symbols = 200_000
    splits = 256
    # Equal thirds: p50 falls inside the c16 class, p90 inside c4.
    weights = {4: 1, 16: 1, 64: 1}

    def __init__(self, seed: int, plant_mismatch: bool = False) -> None:
        super().__init__(seed, plant_mismatch)
        self.expected = dict(self.sources)
        if plant_mismatch:
            wrong = self.expected["a0"].copy()
            wrong[0] ^= 1
            self.expected["a0"] = wrong

    def execute(self, client, req: Request) -> bool:
        try:
            out = client.decompress(req.asset, req.capacity)
        except REQUEST_ERRORS:
            return False
        self.bytes_received += out.nbytes
        return verify(out, self.expected[req.asset])


class Fetch(_Catalogue):
    name = "fetch"
    symbols = 1_000_000
    splits = 1024
    weights = {1: 1, 16: 1, 256: 1, 1024: 1}

    def __init__(self, seed: int, plant_mismatch: bool = False) -> None:
        super().__init__(seed, plant_mismatch)
        self.expected = dict(self.variants)
        if plant_mismatch:
            key = ("a0", 1)
            wrong = bytearray(self.expected[key])
            wrong[-1] ^= 1
            self.expected[key] = bytes(wrong)

    def _asset_data(self, a: int, seed: int) -> np.ndarray:
        # Three cost levels at equal shares per asset: a0 light
        # (exponential bytes, lambda=40, ~4.1 bits/symbol), a1 and a2
        # medium (text, 5.6 bits), a3 heavy (text, 7.9 bits): 0.5, 0.7
        # and 1.0 MB containers.  p50 then sits mid-way through the
        # medium level and p90 inside the heavy one.  One size for all
        # would leave p90 to the scheduling jitter of a 1.5 ms request,
        # which spread 42% run to run on a shared host; capacities only
        # move a container's size by up to 12%.
        if a == 0:
            return exponential_bytes(self.symbols, 40.0, seed=seed)
        return text_surrogate(
            self.symbols, 7.9 if a == 3 else 5.6, seed=seed
        )

    def level(self, req: Request) -> str:
        return {"a0": "light", "a3": "heavy"}.get(req.asset, "medium")

    def execute(self, client, req: Request) -> bool:
        try:
            blob = client.serve(req.asset, req.capacity)
        except REQUEST_ERRORS:
            return False
        self.bytes_received += len(blob)
        return verify(blob, self.expected[(req.asset, req.capacity)])


class Ingest(Workload):
    name = "ingest"
    symbols = 150_000
    splits = 256
    weights = {16: 1, 64: 1}
    #: span of the base sequence the ingest inputs are windows of.
    _BASE_SPAN = 1 << 20
    #: odd stride between window offsets: coprime with the span, so
    #: the first ``_BASE_SPAN`` inputs all start at different offsets.
    _STRIDE = 104_729

    def __init__(self, seed: int, plant_mismatch: bool = False) -> None:
        super().__init__(seed, plant_mismatch)
        self._base = text_surrogate(
            self._BASE_SPAN + self.symbols, ENTROPY, seed=_sub_seed(seed, 3)
        )
        #: (input index, fetched container) per timed request.
        self._served: list[tuple[int, bytes]] = []

    def _pass_items(self) -> list[tuple[str, int]]:
        # Names are assigned per input, so a slot is just a capacity.
        return [("", cap) for cap in self.weights]

    def input(self, index: int) -> np.ndarray:
        """Input ``index``: a window of the seeded base sequence."""
        off = (index * self._STRIDE) % self._BASE_SPAN
        return self._base[off : off + self.symbols]

    def warmup_requests(self) -> list[Request]:
        return [
            Request(f"in{i % INGEST_NAMES}", cap, i)
            for i, (_, cap) in enumerate(self._passes[0])
        ]

    def timed_requests(self):
        i = INGEST_TIMED_BASE
        while True:
            for one in self._passes:
                for _, cap in one:
                    yield Request(f"in{i % INGEST_NAMES}", cap, i)
                    i += 1

    def execute(self, client, req: Request) -> bool:
        data = self.input(req.index)
        try:
            master = core_api.recoil_compress(data, num_splits=self.splits)
            if client.put_container(req.asset, master) != data.size:
                return False
            served = client.serve(req.asset, req.capacity)
        except REQUEST_ERRORS:
            return False
        self.bytes_received += len(served)
        if req.index >= INGEST_TIMED_BASE:
            self._served.append((req.index, served))
        return True

    def verify_deferred(self) -> int:
        """Decode each request's fetched container; count mismatches."""
        failed = 0
        for n, (index, served) in enumerate(self._served):
            want = self.input(index)
            if self.plant_mismatch and n == 0:
                want = want.copy()
                want[0] ^= 1
            try:
                ok = np.array_equal(recoil_decompress(served), want)
            except ReproError:
                ok = False
            failed += not ok
        return failed

    def figures_blobs(self) -> list[bytes]:
        # recoil_compress is deterministic: these are the bytes the
        # leading timed requests uploaded.
        return [
            core_api.recoil_compress(self.input(i), num_splits=self.splits)
            for i in range(
                INGEST_TIMED_BASE, INGEST_TIMED_BASE + INGEST_FIGURE_REQUESTS
            )
        ]


WORKLOADS = {w.name: w for w in (Decode, Fetch, Ingest)}
