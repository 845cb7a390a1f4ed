"""Differential tests for the fused wide-lane encode kernel.

Every configuration pits the fused kernel
(:meth:`InterleavedEncoder.encode`, backed by
:mod:`repro.parallel.fused_encode`) against the original per-group
masked loop (:meth:`InterleavedEncoder.encode_reference`).  Streams,
final states and renormalization-event logs must be **bit-identical**
— the fused kernel is a re-scheduling of the same work, not an
approximation — and everything it encodes must decode through the
fused decode kernel of PR 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.conventional import ConventionalCodec
from repro.core.api import recoil_compress
from repro.core.decoder import RecoilDecoder
from repro.core.encoder import RecoilEncoder
from conftest import needs_compiled, running_on
from repro.errors import EncodeError, ModelError
from repro.parallel import compiled
from repro.parallel.fused_encode import EncodeTask, fused_encode_run
from repro.rans.adaptive import IndexedModelProvider, StaticModelProvider
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel

LANES = [1, 4, 32]


@pytest.fixture(scope="module")
def payload():
    r = np.random.default_rng(421)
    return np.minimum(np.floor(r.exponential(9.0, 6_000)), 255).astype(
        np.uint8
    )


@pytest.fixture(scope="module")
def adaptive_provider(payload):
    """Three distinct models cycled per symbol index."""
    sym = np.arange(256, dtype=np.float64)
    models = [
        SymbolModel.from_counts(np.exp(-sym / s) * 1_000 + 1, 10)
        for s in (4.0, 12.0, 40.0)
    ]
    ids = (np.arange(len(payload)) // 7) % 3
    return IndexedModelProvider(models, ids)


def _provider(kind, payload, adaptive_provider):
    if kind == "adaptive":
        return adaptive_provider
    return StaticModelProvider(
        SymbolModel.from_data(payload, 11, alphabet_size=256)
    )


def _assert_encodes_equal(a, b):
    assert np.array_equal(a.words, b.words)
    assert np.array_equal(a.final_states, b.final_states)
    assert a.num_symbols == b.num_symbols
    if a.events is not None or b.events is not None:
        assert np.array_equal(
            a.events.symbol_index, b.events.symbol_index
        )
        assert np.array_equal(a.events.lane, b.events.lane)
        assert np.array_equal(a.events.state_after, b.events.state_after)


class TestFusedVsReference:
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    @pytest.mark.parametrize("record_events", [False, True])
    def test_bit_identical(
        self, payload, adaptive_provider, lanes, kind, record_events,
        kernel_backend,
    ):
        provider = _provider(kind, payload, adaptive_provider)
        enc = InterleavedEncoder(provider, lanes=lanes)
        _assert_encodes_equal(
            enc.encode(payload, record_events=record_events),
            enc.encode_reference(payload, record_events=record_events),
        )

    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize(
        "n", [0, 1, 3, 31, 32, 33, 63, 64, 65, 1023, 4097]
    )
    def test_edge_lengths(self, payload, lanes, n, kernel_backend):
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=lanes)
        _assert_encodes_equal(
            enc.encode(payload[:n], record_events=True),
            enc.encode_reference(payload[:n], record_events=True),
        )

    def test_n16_first_group_renorm(self, payload):
        """n=16 admits first-group renormalization (f=1, x=L) — the
        trickiest parameter point on the encode side too."""
        model = SymbolModel.from_data(payload, 16, alphabet_size=256)
        enc = InterleavedEncoder(model, lanes=32)
        _assert_encodes_equal(
            enc.encode(payload, record_events=True),
            enc.encode_reference(payload, record_events=True),
        )

    def test_events_feed_identical_splits(self, payload):
        """Same events ⇒ same split metadata ⇒ same serving behavior."""
        provider = _provider("static", payload, None)
        md_fused = RecoilEncoder(provider).encode(payload, 8).metadata
        ref = InterleavedEncoder(provider, 32).encode_reference(
            payload, record_events=True
        )
        from repro.core.splitter import SplitSelector

        md_ref, _ = SplitSelector(
            ref.events, 32, ref.num_symbols
        ).select(8)
        assert np.array_equal(md_fused.word_offsets, md_ref.word_offsets)
        assert np.array_equal(md_fused.lane_indices, md_ref.lane_indices)
        assert np.array_equal(md_fused.lane_states, md_ref.lane_states)

    def test_arena_reuse_across_sizes(self, payload):
        """Encodes of shifting geometries on one thread must not leak
        state between calls through the thread's arena (DESIGN.md
        §9)."""
        provider = _provider("static", payload, None)
        enc = InterleavedEncoder(provider, lanes=32)
        for n in (4_096, 100, 6_000, 33, 0, 5_000):
            _assert_encodes_equal(
                enc.encode(payload[:n], record_events=True),
                enc.encode_reference(payload[:n], record_events=True),
            )

    def test_zero_frequency_symbol_rejected(self, payload, kernel_backend):
        """A zero-frequency symbol is a typed error before any sweep
        runs: the compiled sweep divides by the frequency, so this
        check is all that stands between it and a SIGFPE."""
        counts = np.zeros(256)
        counts[:4] = [5, 3, 2, 1]
        model = SymbolModel.from_counts(counts, 11)
        assert int(model.freqs[200]) == 0
        sparse = StaticModelProvider(model)
        short = np.array([0, 1, 200, 2], dtype=np.uint8)
        deep = np.resize(np.arange(4, dtype=np.uint8), 3_000)
        deep[1_500] = 200  # mid-block, after 46 full 32-lane groups
        for bad, lanes, index in ((short, 2, 3), (deep, 32, 1_501)):
            msg = f"symbol 200 at index {index} has zero quantized"
            with pytest.raises(ModelError, match=msg):
                InterleavedEncoder(sparse, lanes=lanes).encode(bad)
            with pytest.raises(ModelError):
                InterleavedEncoder(sparse, lanes=lanes).encode_reference(
                    bad
                )

    def test_zero_frequency_named_alike_across_tasks(self, kernel_backend):
        """A multi-task encode names the first zero-frequency symbol
        of the first task holding one, as the per-partition reference
        loop does: here partition 0's, although partition 1's zero
        lies in an earlier interleave group."""
        counts = np.zeros(256)
        counts[:4] = [5, 3, 2, 1]
        codec = ConventionalCodec(SymbolModel.from_counts(counts, 11))
        data = np.resize(np.arange(4, dtype=np.uint8), 8_000)
        data[3_000] = 200  # partition 0, group 93
        data[4_010] = 201  # partition 1, group 0
        msg = "symbol 200 at index 3001 has zero quantized"
        with pytest.raises(ModelError, match=msg):
            codec.encode(data, 2)
        with pytest.raises(ModelError, match=msg):
            codec.encode_reference(data, 2)

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_out_of_alphabet_symbol_rejected(self, bad, kernel_backend):
        """A symbol outside ``[0, alphabet)`` is a typed error naming
        it and its 1-based index, on every encode path.  Unchecked,
        ``take`` wraps -1 to symbol 255 (which then decodes without
        error), and the alphabet size selects the tables' identity
        column, which would drop the symbol from the stream."""
        model = SymbolModel.from_counts(np.ones(256), 11)
        data = np.array([1, 2, bad, 3] * 50)
        msg = f"symbol {bad} at index 3 is outside the alphabet"
        with pytest.raises(EncodeError, match=msg):
            InterleavedEncoder(model).encode(data)
        with pytest.raises(EncodeError, match=msg):
            ConventionalCodec(model).encode(data, 4)
        with pytest.raises(EncodeError, match=msg):
            recoil_compress(data, num_splits=4, model=model)

    def test_non_integer_symbols_rejected(self, kernel_backend):
        """Staging casts to gather indices, so 2.5 would encode as 2."""
        model = SymbolModel.from_counts(np.ones(256), 11)
        with pytest.raises(EncodeError, match="must be integers"):
            InterleavedEncoder(model).encode(np.array([1.0, 2.5, 3.0]))

    def test_non_1d_rejected(self, payload):
        provider = _provider("static", payload, None)
        with pytest.raises(EncodeError):
            InterleavedEncoder(provider).encode(
                np.zeros((2, 2), dtype=int)
            )


@needs_compiled
class TestCompiledEncodeChecks:
    """The C encode checks its own gathers, so a table or a symbol the
    Python checks never saw returns an error code, not a signal."""

    @staticmethod
    def _encode(freq, data, ids=None, offset=0):
        freq = np.asarray(freq, dtype=np.uint64)
        return compiled.rans_encode(
            freq, np.zeros_like(freq), ids, 11, 4,
            [np.asarray(d, dtype=np.uint8) for d in data],
            [offset] * len(data), [True] * len(data),
        )[:2]

    def test_zero_frequency_is_an_error_code(self):
        freq = [[5, 0, 2041, 2, 2048]]  # symbol 1 has no frequency
        assert self._encode(freq, [[0, 2, 3, 2, 1, 0]]) == (
            compiled.ENC_FREQ, (0, 4),
        )
        assert self._encode(freq, [[0, 2], [3, 3, 1]]) == (
            compiled.ENC_FREQ, (1, 2),
        )

    def test_gather_outside_the_tables_is_an_error_code(self):
        freq = [[5, 1, 2040, 2, 2048], [1, 1, 1, 2045, 2048]]
        # The identity column is no symbol.
        assert self._encode(freq[:1], [[0, 4, 1]]) == (
            compiled.ENC_TABLE, (0, 1),
        )
        # A model id outside the bank, and an id read past the array.
        ids = np.array([0, 1, 2, 0], dtype=np.uint64)
        assert self._encode(freq, [[0, 1, 2]], ids) == (
            compiled.ENC_TABLE, (0, 2),
        )
        ids[2] = 1
        assert self._encode(freq, [[0, 1, 2]], ids, offset=2) == (
            compiled.ENC_TABLE, (0, 2),
        )

    def test_clean_call_after_a_failed_one(self):
        freq = [[5, 1, 2040, 2, 2048]]
        err, _, words, events, finals, counts = compiled.rans_encode(
            np.asarray(freq, dtype=np.uint64),
            np.array([[0, 5, 6, 2046, 0]], dtype=np.uint64), None, 11, 2,
            [np.array([0, 1, 2, 3] * 20, dtype=np.uint8)], [0], [False],
        )
        assert err == 0 and counts.shape == (1,) and finals.shape == (1, 2)
        # Every buffer is trimmed to what the call wrote.
        assert 0 < len(words) == counts[0] < 80
        assert all(len(a) == 0 for a in events)


class TestRoundTripThroughFusedDecoder:
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_full_stream(self, payload, adaptive_provider, lanes, kind):
        provider = _provider(kind, payload, adaptive_provider)
        enc = InterleavedEncoder(provider, lanes=lanes).encode(payload)
        dec = InterleavedDecoder(provider, lanes=lanes)
        out = dec.decode(enc.words, enc.final_states, enc.num_symbols)
        assert np.array_equal(out, payload)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_recoil_split_decode(
        self, payload, adaptive_provider, threads, kind
    ):
        """Fused-encoded events drive mid-stream decoder entry."""
        provider = _provider(kind, payload, adaptive_provider)
        enc = RecoilEncoder(provider).encode(payload, num_threads=threads)
        res = RecoilDecoder(provider).decode(
            enc.words, enc.final_states, enc.metadata
        )
        assert np.array_equal(res.symbols, payload)


class TestMultiTaskFusion:
    @pytest.mark.parametrize("partitions", [1, 3, 8, 17, 2176])
    @pytest.mark.parametrize("kind", ["static", "adaptive"])
    def test_conventional_partitions_bit_identical(
        self, payload, adaptive_provider, partitions, kind
    ):
        """All partitions fused into one kernel call == per-partition
        reference loops, word for word.  At 2176 (Figure 7's Large
        count) the 6,000 symbols make 2,000 partitions of 3, so every
        task is one partial group padded with the identity symbol."""
        provider = _provider(kind, payload, adaptive_provider)
        codec = ConventionalCodec(provider, lanes=32)
        a = codec.encode(payload, partitions)
        b = codec.encode_reference(payload, partitions)
        assert np.array_equal(a.words, b.words)
        assert np.array_equal(a.word_offsets, b.word_offsets)
        assert np.array_equal(a.final_states, b.final_states)
        out, _, _ = codec.decode(a)
        assert np.array_equal(out, payload)

    def test_unequal_task_lengths(self, payload, kernel_backend):
        """Tasks of very different sizes: every task runs to the
        longest task's groups, the short ones padded with the identity
        symbol, which must emit nothing and leave their states as the
        reference loop ends them."""
        provider = _provider("static", payload, None)
        sizes = [0, 7, 65, 2_000, 31, 6_000]
        tasks = [
            EncodeTask(payload[:sz], record_events=True) for sz in sizes
        ]
        outs = fused_encode_run(provider, 32, tasks)
        enc = InterleavedEncoder(provider, lanes=32)
        for sz, out in zip(sizes, outs):
            ref = enc.encode_reference(payload[:sz], record_events=True)
            assert np.array_equal(out.words, ref.words)
            assert np.array_equal(out.final_states, ref.final_states)
            assert np.array_equal(
                out.events.symbol_index, ref.events.symbol_index
            )
            assert np.array_equal(out.events.lane, ref.events.lane)
            assert np.array_equal(
                out.events.state_after, ref.events.state_after
            )

    def test_results_never_alias_scratch(self, payload):
        """Arena rule 2: returned arrays are fresh — re-running the
        kernel on the same thread's arena must not mutate previously
        returned results."""
        provider = _provider("static", payload, None)
        first = fused_encode_run(provider, 32, [EncodeTask(payload[:1000])])[0]
        words_copy = first.words.copy()
        states_copy = first.final_states.copy()
        fused_encode_run(provider, 32, [EncodeTask(payload[1000:3000])])
        assert np.array_equal(first.words, words_copy)
        assert np.array_equal(first.final_states, states_copy)

    @needs_compiled
    def test_compiled_results_hold_only_what_they_wrote(self, payload):
        """On C every result views one flat buffer per call, trimmed to
        the words and events the call wrote: a held result keeps those,
        not a slot per input symbol."""
        provider = _provider("static", payload, None)
        tasks = [
            EncodeTask(payload[:sz], record_events=rec)
            for sz, rec in ((2_000, True), (65, False), (6_000, True))
        ]
        with running_on("compiled"):
            outs = fused_encode_run(provider, 32, tasks)
        words = sum(len(o.words) for o in outs)
        events = sum(
            len(o.events.lane) for o in outs if o.events is not None
        )
        assert 0 < words < sum(len(t.data) for t in tasks)
        for o in outs:
            assert len(o.words.base) == words
            if o.events is not None:
                ev = o.events
                for a in (ev.symbol_index, ev.lane, ev.state_after):
                    assert len(a.base) == events


class TestEncodeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=2_000),
        lanes=st.sampled_from([1, 2, 7, 32]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_roundtrip_and_parity(self, n, lanes, seed):
        r = np.random.default_rng(seed)
        data = np.minimum(
            np.floor(r.exponential(20.0, n)), 255
        ).astype(np.uint8)
        model = SymbolModel.from_counts(
            np.bincount(data, minlength=256) + 1, 11
        )
        enc = InterleavedEncoder(model, lanes=lanes)
        fused = enc.encode(data, record_events=True)
        ref = enc.encode_reference(data, record_events=True)
        _assert_encodes_equal(fused, ref)
        dec = InterleavedDecoder(model, lanes=lanes)
        out = dec.decode(fused.words, fused.final_states, n)
        assert np.array_equal(out, data)
