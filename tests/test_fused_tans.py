"""Differential tests: fused tANS kernel vs the reference loops.

The fused wide-lane multians kernel (`repro.tans.fused`) must be
bit-identical to the seed implementations it replaced — output
symbols *and* synchronization stats (overlaps feed the Figure 7 cost
model).  `parallel_decode_reference`, `decode_from_reference` and
`measure_sync_length_reference` are kept in-tree exactly for these
tests.  The multians decode runs numpy on every host; the
``kernel_backend`` tests check it is the same on a host with a C
compiler and on one without.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError
from repro.tans import MultiansCodec, TansDecoder, TansEncoder, TansTable
from repro.tans.fused import (
    bit_windows,
    fused_speculative_pass,
    staged_single_decode,
)
from repro.tans.multians import (
    measure_sync_length,
    measure_sync_length_reference,
)


def _decompress_reference(codec: MultiansCodec, blob: bytes, threads: int):
    """``codec.decompress`` on the seed pipeline."""
    enc, table = codec.parse(blob)
    return codec.parallel_decode_reference(enc, table, threads)


@pytest.fixture(scope="module")
def table12(skewed_bytes):
    return TansTable.from_data(skewed_bytes, 12, alphabet_size=256)


@pytest.fixture(scope="module")
def codec(table12):
    return MultiansCodec(table12)


@pytest.fixture(scope="module")
def blob(codec, skewed_bytes):
    return codec.compress(skewed_bytes)


class TestBitWindows:
    def test_windows_match_bit_reads(self, rng):
        payload = rng.integers(0, 256, 64).astype(np.uint8)
        bits = np.unpackbits(payload)
        win = bit_windows(payload)
        for p in (0, 1, 7, 8, 13, 300, 64 * 8 - 16):
            for nb in (1, 5, 11, 16):
                want = int(bits[p : p + nb] @ (1 << np.arange(nb)[::-1]))
                got = (int(win[p >> 3]) >> (24 - (p & 7) - nb)) & (
                    (1 << nb) - 1
                )
                assert got == want, (p, nb)

    def test_guard_windows_cover_stream_end(self):
        payload = np.array([0xFF], dtype=np.uint8)
        win = bit_windows(payload)
        # A cursor parked at the end of the stream gathers zeros.
        assert len(win) >= 3 and int(win[1]) == 0


class TestPackedDecodeEntries:
    def test_fields_roundtrip(self, table12):
        pk = table12.packed_decode_entries()
        nb = (pk >> 17) & 31
        base = pk >> 22
        mask = pk & ((1 << 17) - 1)
        assert np.array_equal(nb, table12.dec_nb)
        assert np.array_equal(base, table12.dec_base)
        assert np.array_equal(mask, (1 << table12.dec_nb.astype(np.int64)) - 1)

    def test_cached(self, table12):
        assert table12.packed_decode_entries() is table12.packed_decode_entries()


class TestSingleStreamDifferential:
    def test_staged_matches_reference(self, table12, skewed_bytes):
        enc = TansEncoder(table12).encode(skewed_bytes[:20_000])
        dec = TansDecoder(table12)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        out_f, xf, pf = dec.decode_from(
            payload, enc.bit_count, enc.initial_state, 0, enc.num_symbols
        )
        out_r, xr, pr = dec.decode_from_reference(
            payload, enc.bit_count, enc.initial_state, 0, enc.num_symbols
        )
        assert np.array_equal(out_f, out_r)
        assert (xf, pf) == (xr, pr)

    def test_decode_engines_agree(self, table12, skewed_bytes):
        enc = TansEncoder(table12).encode(skewed_bytes[:5_000])
        dec = TansDecoder(table12)
        assert np.array_equal(dec.decode(enc), dec.decode_reference(enc))

    def test_mid_stream_guess_start(self, table12, skewed_bytes):
        """Speculative entry: a wrong starting state decodes garbage
        then self-synchronizes — both paths produce the same walk."""
        enc = TansEncoder(table12).encode(skewed_bytes[:10_000])
        dec = TansDecoder(table12)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        guess = table12.table_size + 123
        out_f, xf, pf = dec.decode_from(
            payload, enc.bit_count, guess, 64, 500
        )
        out_r, xr, pr = dec.decode_from_reference(
            payload, enc.bit_count, guess, 64, 500
        )
        assert np.array_equal(out_f, out_r)
        assert (xf, pf) == (xr, pr)


class TestExhaustedBitstream:
    def test_fused_raises(self, table12, skewed_bytes):
        enc = TansEncoder(table12).encode(skewed_bytes[:2_000])
        dec = TansDecoder(table12)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        with pytest.raises(DecodeError, match="exhausted"):
            dec.decode_from(
                payload, enc.bit_count, enc.initial_state, 0,
                enc.num_symbols + 64,
            )

    def test_reference_raises(self, table12, skewed_bytes):
        enc = TansEncoder(table12).encode(skewed_bytes[:2_000])
        dec = TansDecoder(table12)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        with pytest.raises(DecodeError, match="exhausted"):
            dec.decode_from_reference(
                payload, enc.bit_count, enc.initial_state, 0,
                enc.num_symbols + 64,
            )

    def test_truncated_bit_count(self, table12, skewed_bytes):
        enc = TansEncoder(table12).encode(skewed_bytes[:2_000])
        dec = TansDecoder(table12)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        with pytest.raises(DecodeError, match="exhausted"):
            dec.decode_from(
                payload, enc.bit_count // 2, enc.initial_state, 0,
                enc.num_symbols,
            )


class TestParallelDifferential:
    @pytest.mark.parametrize("threads", [1, 4, 16, 64, 256])
    def test_bit_identity(
        self, codec, blob, skewed_bytes, threads, kernel_backend
    ):
        """Fused vs reference: same symbols, same overlap stats, same
        unsynced count — across serial fallback (P=1), scalar-stitch
        widths (P<24) and wide-search widths (P>=24)."""
        out_f, st_f = codec.decompress(blob, num_threads=threads)
        out_r, st_r = _decompress_reference(codec, blob, threads)
        assert np.array_equal(out_f, skewed_bytes)
        assert np.array_equal(out_f, out_r)
        assert st_f.threads == st_r.threads
        assert np.array_equal(st_f.overlap_symbols, st_r.overlap_symbols)
        assert st_f.unsynced_threads == st_r.unsynced_threads

    def test_forced_non_sync_chunks(self, skewed_bytes, kernel_backend):
        """A 2**15-state table on short chunks never synchronizes
        (the n=16 collapse driver): chunks are absorbed, output must
        still be exact and both paths must agree on how many."""
        data = skewed_bytes[:24_000]
        table = TansTable.from_data(data, 15, alphabet_size=256)
        mc = MultiansCodec(table)
        blob = mc.compress(data)
        out_f, st_f = mc.decompress(blob, num_threads=64)
        out_r, st_r = _decompress_reference(mc, blob, 64)
        assert st_f.unsynced_threads > 0  # the premise of the test
        assert np.array_equal(out_f, data)
        assert np.array_equal(out_f, out_r)
        assert np.array_equal(st_f.overlap_symbols, st_r.overlap_symbols)
        assert st_f.unsynced_threads == st_r.unsynced_threads

    @pytest.mark.parametrize("n", [2400, 2473, 3000])
    def test_ragged_trailing_chunks(self, skewed_bytes, n,
                                   kernel_backend):
        """The chunk plan rounds the bit span up, so trailing chunk
        starts can lie past the stream end at high thread counts
        (e.g. 12k bits / 256 chunks).  Those parked lanes must not be
        gathered out of range (regression: IndexError)."""
        data = skewed_bytes[:n]
        table = TansTable.from_data(data, 11, alphabet_size=256)
        mc = MultiansCodec(table)
        blob = mc.compress(data)
        enc, _ = mc.parse(blob)
        P, starts, _ = mc._plan_chunks(enc, 256)
        assert int(starts.max()) > enc.bit_count  # the premise
        out_f, st_f = mc.decompress(blob, num_threads=256)
        out_r, st_r = _decompress_reference(mc, blob, 256)
        assert np.array_equal(out_f, data)
        assert np.array_equal(out_f, out_r)
        assert np.array_equal(st_f.overlap_symbols, st_r.overlap_symbols)
        assert st_f.unsynced_threads == st_r.unsynced_threads

    def test_speculative_pass_end_cursors(self, codec, blob):
        """The staged end cursors must equal a serial re-decode of
        each chunk (the seed recomputed them with per-bit loops)."""
        enc, table = codec.parse(blob)
        P, starts, ends = codec._plan_chunks(enc, 16)
        payload = np.frombuffer(enc.payload, dtype=np.uint8)
        spec = fused_speculative_pass(
            table, payload, enc.bit_count, starts, ends,
            enc.initial_state, enc.num_symbols,
        )
        dec = TansDecoder(table)
        # Chunk 0 decodes from the true state: replay it serially.
        L0 = int(spec.traj_len[0])
        out, x, p = dec.decode_from_reference(
            payload, enc.bit_count, enc.initial_state, 0, L0
        )
        assert int(spec.end_state[0]) == x
        assert int(spec.end_pos[0]) == p
        assert np.array_equal(
            table.dec_sym[spec.traj_state[:L0, 0] - table.table_size], out
        )


class TestSyncLengthDifferential:
    @pytest.mark.parametrize("table_bits", [10, 12, 14])
    def test_matches_reference(self, skewed_bytes, table_bits):
        table = TansTable.from_data(skewed_bytes, table_bits, alphabet_size=256)
        mc = MultiansCodec(table)
        enc, _ = mc.parse(mc.compress(skewed_bytes))
        kw = dict(samples=6, window_symbols=20_000, seed=3)
        assert measure_sync_length(table, enc, **kw) == (
            measure_sync_length_reference(table, enc, **kw)
        )

    def test_empty_window(self, table12):
        enc = TansEncoder(table12).encode(np.array([], dtype=np.uint8))
        assert measure_sync_length(table12, enc, samples=4) == 0.0


class TestHypothesisRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=1, max_size=2_000,
        ),
        threads=st.sampled_from([1, 3, 8, 27, 64, 500]),
        table_bits=st.sampled_from([7, 9, 11]),
    )
    def test_roundtrip_fused_and_reference(self, data, threads, table_bits):
        arr = np.asarray(data, dtype=np.int64)
        table = TansTable.from_data(arr, table_bits, alphabet_size=32)
        mc = MultiansCodec(table)
        blob = mc.compress(arr)
        out_f, st_f = mc.decompress(blob, num_threads=threads)
        out_r, st_r = _decompress_reference(mc, blob, threads)
        assert np.array_equal(out_f, arr)
        assert np.array_equal(out_f, out_r)
        assert np.array_equal(st_f.overlap_symbols, st_r.overlap_symbols)
        assert st_f.unsynced_threads == st_r.unsynced_threads

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=1, max_size=500,
        ),
    )
    def test_skewed_small_alphabet_single_stream(self, data):
        """Tiny alphabets produce zero-bit symbols (f_s > T/2), the
        staged sweep's no-read branch."""
        arr = np.asarray(data, dtype=np.int64)
        table = TansTable.from_data(arr, 6, alphabet_size=4)
        enc = TansEncoder(table).encode(arr)
        dec = TansDecoder(table)
        assert np.array_equal(dec.decode(enc), arr)
        assert np.array_equal(dec.decode_reference(enc), arr)
