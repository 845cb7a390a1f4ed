"""End-to-end tests for the Recoil 3-phase parallel decoder (§4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError
from repro.rans.interleaved import InterleavedDecoder
from repro.rans.model import SymbolModel


@pytest.fixture(scope="module")
def encoded64(skewed_bytes, model11):
    return RecoilEncoder(model11).encode(skewed_bytes, num_threads=64)


class TestRecoilRoundtrip:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8, 16, 64])
    def test_roundtrip_at_every_parallelism(
        self, encoded64, skewed_bytes, model11, threads
    ):
        """The same stream decodes identically at every thread count
        (the decoder-adaptive scalability core claim)."""
        dec = RecoilDecoder(model11)
        res = dec.decode(
            encoded64.words,
            encoded64.final_states,
            encoded64.metadata.combine(threads),
        )
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_matches_plain_interleaved_decoder(
        self, encoded64, skewed_bytes, model11
    ):
        """Recoil never modifies the bitstream (§1 compatibility):
        a standard interleaved decoder reads the same payload."""
        plain = InterleavedDecoder(model11).decode(
            encoded64.words, encoded64.final_states, encoded64.num_symbols
        )
        assert np.array_equal(plain, skewed_bytes)

    def test_dropping_any_single_entry_still_decodes(
        self, encoded64, skewed_bytes, model11
    ):
        """Combining = dropping entries; ANY subset must decode (we
        drop each entry in turn on a thinned metadata)."""
        md = encoded64.metadata.combine(9)
        dec = RecoilDecoder(model11)
        for k in range(len(md.word_offsets)):
            thinned = type(md)(
                md.num_symbols,
                md.num_words,
                md.lanes,
                np.delete(md.word_offsets, k),
                np.delete(md.lane_indices, k, axis=0),
                np.delete(md.lane_states, k, axis=0),
            )
            res = dec.decode(
                encoded64.words, encoded64.final_states, thinned
            )
            assert np.array_equal(res.symbols, skewed_bytes), f"drop {k}"

    def test_max_threads_combines_clientside(
        self, encoded64, skewed_bytes, model11
    ):
        dec = RecoilDecoder(model11)
        res = dec.decode(
            encoded64.words,
            encoded64.final_states,
            encoded64.metadata,
            max_threads=4,
        )
        assert np.array_equal(res.symbols, skewed_bytes)
        assert res.workload.num_tasks == 4

    def test_lane_mismatch_rejected(self, encoded64, model11):
        dec = RecoilDecoder(model11, lanes=16)
        with pytest.raises(DecodeError):
            dec.decode(
                encoded64.words, encoded64.final_states, encoded64.metadata
            )

    def test_n16_roundtrip(self, skewed_bytes, model16):
        enc = RecoilEncoder(model16).encode(skewed_bytes, num_threads=32)
        res = RecoilDecoder(model16).decode(
            enc.words, enc.final_states, enc.metadata
        )
        assert np.array_equal(res.symbols, skewed_bytes)

    @pytest.mark.parametrize("n_sym", [0, 1, 33, 700])
    def test_tiny_inputs(self, skewed_bytes, model11, n_sym):
        data = skewed_bytes[:n_sym]
        enc = RecoilEncoder(model11).encode(data, num_threads=8)
        res = RecoilDecoder(model11).decode(
            enc.words, enc.final_states, enc.metadata
        )
        assert np.array_equal(res.symbols, data)


class TestThreePhaseAccounting:
    def test_sync_overhead_counted(self, encoded64, model11):
        """Sync sections are walked twice; the syncing thread decodes
        only its already-activated lanes there, the crossing thread
        decodes all of them.  So actual decodes sit strictly between
        N and N + total sync length, and the *walk* overhead equals
        the sync sections exactly."""
        res = RecoilDecoder(model11).decode(
            encoded64.words, encoded64.final_states, encoded64.metadata
        )
        n = encoded64.num_symbols
        sync = encoded64.metadata.sync_overhead_symbols()
        assert sync > 0
        assert n < res.engine_stats.symbols_decoded <= n + sync
        assert res.workload.overhead_symbols == sync

    def test_combining_reduces_overhead(self, encoded64, model11):
        dec = RecoilDecoder(model11)
        full = dec.decode(
            encoded64.words, encoded64.final_states, encoded64.metadata
        )
        small = dec.decode(
            encoded64.words,
            encoded64.final_states,
            encoded64.metadata.combine(4),
        )
        assert (
            small.workload.overhead_symbols
            < full.workload.overhead_symbols
        )

    def test_words_read_equals_stream(self, encoded64, model11):
        """Every stream word is read at least once; sync-section words
        are read twice (by the syncing and crossing threads)."""
        res = RecoilDecoder(model11).decode(
            encoded64.words, encoded64.final_states, encoded64.metadata
        )
        assert res.engine_stats.words_read >= len(encoded64.words)
        assert res.engine_stats.words_read <= 2 * len(encoded64.words)

    def test_task_construction(self, encoded64):
        tasks = build_thread_tasks(
            encoded64.metadata,
            len(encoded64.words),
            encoded64.final_states,
        )
        assert tasks.num_tasks == encoded64.metadata.num_threads
        # Exactly the first task checks terminal conditions; exactly
        # the last runs from the transmitted final states.
        assert tasks.geom[0, 6]
        assert tasks.has_init[-1]
        assert not np.any(tasks.has_init[:-1])
        # Commit ranges tile [1, N].
        nxt = 1
        for commit_hi, commit_lo in tasks.geom[:, 3:5].tolist():
            assert commit_lo == nxt
            nxt = commit_hi + 1
        assert nxt == encoded64.num_symbols + 1


class TestCorruptionDetection:
    def test_truncated_payload(self, encoded64, model11):
        with pytest.raises(DecodeError):
            RecoilDecoder(model11).decode(
                encoded64.words[: len(encoded64.words) // 3],
                encoded64.final_states,
                encoded64.metadata,
            )

    def test_corrupt_final_states(self, encoded64, skewed_bytes, model11):
        bad = encoded64.final_states.copy()
        bad[0] ^= 0x1234
        try:
            res = RecoilDecoder(model11).decode(
                encoded64.words, bad, encoded64.metadata
            )
            # If no exception, the output must at least be wrong —
            # garbage in the last thread's lane-0 symbols.
            assert not np.array_equal(res.symbols, skewed_bytes)
        except DecodeError:
            pass

    def test_corrupt_entry_state_detected_or_wrong(
        self, encoded64, skewed_bytes, model11
    ):
        md = encoded64.metadata
        bad_states = md.lane_states.copy()
        bad_states[len(bad_states) // 2, 5] ^= 0x0F0F
        bad_md = type(md)(
            md.num_symbols, md.num_words, md.lanes, md.word_offsets,
            md.lane_indices, bad_states,
        )
        try:
            res = RecoilDecoder(model11).decode(
                encoded64.words, encoded64.final_states, bad_md
            )
            assert not np.array_equal(res.symbols, skewed_bytes)
        except DecodeError:
            pass
