"""System-level property-based tests (hypothesis).

These are the invariants DESIGN.md §4 promises, exercised over random
models, data, interleave widths, and split requests:

- Recoil roundtrips at every parallelism for arbitrary inputs;
- combining metadata never changes the decoded output;
- the Recoil payload is byte-identical to the plain interleaved
  stream (bitstream compatibility);
- Lemma 3.1 holds for every recorded event;
- container serialize/parse/shrink are lossless.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    RecoilCodec,
    parse_container,
    recoil_shrink,
)
from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.rans.constants import L_BOUND
from repro.rans.interleaved import InterleavedDecoder, InterleavedEncoder
from repro.rans.model import SymbolModel

from conftest import DECODE_KERNELS, running_on

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _model_and_data(seed: int, length: int, quant_bits: int):
    r = np.random.default_rng(seed)
    alphabet = int(r.integers(2, 200))
    counts = r.integers(0, 1000, alphabet)
    counts[r.integers(0, alphabet)] += 1  # never all-zero
    # Draw data from the (un-normalized) counts so skew is realistic.
    p = counts / counts.sum()
    data = r.choice(alphabet, size=length, p=p)
    present = counts > 0
    counts = np.where(present, np.maximum(counts, 1), 0)
    model = SymbolModel.from_counts(counts, quant_bits)
    return model, data.astype(np.uint16)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    length=st.integers(min_value=0, max_value=4000),
    quant_bits=st.sampled_from([8, 11, 14, 16]),
    splits=st.sampled_from([1, 2, 5, 16, 64]),
)
@settings(**_SETTINGS)
@pytest.mark.parametrize("kernel", DECODE_KERNELS)
def test_recoil_roundtrip_property(seed, length, quant_bits, splits, kernel):
    model, data = _model_and_data(seed, length, quant_bits)
    with running_on(kernel):
        enc = RecoilEncoder(model).encode(data, num_threads=splits)
        res = RecoilDecoder(model).decode(
            enc.words, enc.final_states, enc.metadata
        )
    assert np.array_equal(res.symbols, data.astype(res.symbols.dtype))
    # Lemma 3.1 on the chosen entries.
    assert np.all(enc.metadata.lane_states < L_BOUND)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    target=st.integers(min_value=1, max_value=40),
)
@settings(**_SETTINGS)
def test_combine_never_changes_output_property(seed, target):
    model, data = _model_and_data(seed, 3000, 11)
    enc = RecoilEncoder(model).encode(data, num_threads=32)
    dec = RecoilDecoder(model)
    full = dec.decode(enc.words, enc.final_states, enc.metadata).symbols
    combined = dec.decode(
        enc.words, enc.final_states, enc.metadata.combine(target)
    ).symbols
    assert np.array_equal(full, combined)
    assert np.array_equal(full, data.astype(full.dtype))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(**_SETTINGS)
def test_payload_identical_to_plain_interleaved_property(seed):
    """Recoil does not touch the bitstream — only metadata differs."""
    model, data = _model_and_data(seed, 2500, 11)
    plain = InterleavedEncoder(model).encode(data)
    recoil = RecoilEncoder(model).encode(data, num_threads=16)
    assert np.array_equal(plain.words, recoil.words)
    assert np.array_equal(plain.final_states, recoil.final_states)
    # And a plain decoder reads the Recoil payload.
    out = InterleavedDecoder(model).decode(
        recoil.words, recoil.final_states, len(data)
    )
    assert np.array_equal(out, data.astype(out.dtype))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    targets=st.lists(
        st.integers(min_value=1, max_value=64), min_size=1, max_size=4
    ),
)
@settings(**_SETTINGS)
def test_container_shrink_chain_property(seed, targets):
    """Any chain of shrinks keeps the container decodable and the
    payload untouched."""
    model, data = _model_and_data(seed, 2500, 11)
    if len(data) == 0:
        return
    codec = RecoilCodec(model)
    blob = codec.compress(data, 64)
    original_words = parse_container(blob).words(blob).copy()
    for t in sorted(targets, reverse=True):
        blob = recoil_shrink(blob, t)
        parsed = parse_container(blob)
        assert np.array_equal(parsed.words(blob), original_words)
        out = codec.decompress(blob)
        assert np.array_equal(out, data.astype(out.dtype))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    lanes=st.sampled_from([2, 8, 32]),
)
@settings(**_SETTINGS)
def test_recoil_any_lane_width_property(seed, lanes):
    model, data = _model_and_data(seed, 3000, 11)
    enc = RecoilEncoder(model, lanes=lanes).encode(data, num_threads=8)
    res = RecoilDecoder(model, lanes=lanes).decode(
        enc.words, enc.final_states, enc.metadata
    )
    assert np.array_equal(res.symbols, data.astype(res.symbols.dtype))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(**_SETTINGS)
def test_thread_tasks_partition_property(seed):
    """Commit ranges always tile [1, N] regardless of what the
    splitter selected."""
    model, data = _model_and_data(seed, 5000, 11)
    enc = RecoilEncoder(model).encode(data, num_threads=24)
    nxt = 1
    tasks = build_thread_tasks(enc.metadata, len(enc.words), enc.final_states)
    for _, walk_hi, walk_lo, commit_hi, commit_lo in tasks.geom[
        :, :5
    ].tolist():
        assert commit_lo == nxt
        assert walk_lo <= commit_lo
        assert walk_hi >= commit_hi
        nxt = commit_hi + 1
    assert nxt == len(data) + 1
