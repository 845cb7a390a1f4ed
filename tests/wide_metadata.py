"""Containers whose metadata uses a wider-than-minimal width field.

The §4.3 format stores a width field per entry record, and any width
that fits the record's group diffs is a valid encoding.
``serialize_metadata`` always writes the minimal one, so re-serializing
a parsed section does not reproduce its length.  A shrink or a
hydration that locates the section that way splices at the wrong
byte.  Shared by the container and store tests.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitWriter, encode_uvarint
from repro.core.api import recoil_compress
from repro.core.container import parse_container
from repro.core.metadata import lane_group_ids
from repro.core.serialization import (
    serialize_metadata,
    write_signed_series,
)
from repro.data import text_surrogate

#: the reproduction shape: a 20k-symbol text container at 8 splits.
SYMBOLS = 20_000
SPLITS = 8
#: extra bits in the first record's width field (K=32 lanes: 32 bytes).
EXTRA_BITS = 8


def widened_container() -> tuple[np.ndarray, bytes, bytes]:
    """``(data, minimal, widened)``: one container twice, the second
    with its first entry record's group diffs written ``EXTRA_BITS``
    wider than needed."""
    data = text_surrogate(SYMBOLS, target_entropy=5.29, seed=20)
    minimal = recoil_compress(data, num_splits=SPLITS)
    parsed = parse_container(minimal)
    md = parsed.metadata
    # A freshly built container's section is the minimal encoding.
    start = parsed.payload_offset - len(serialize_metadata(md))
    K, M = md.lanes, md.num_threads
    expected_off = -(-md.num_words // M)
    expected_grp = -(-(-(-md.num_symbols // K)) // M)
    groups = lane_group_ids(md.lane_indices, K)
    anchors = groups.max(axis=1)
    i = np.arange(1, len(groups) + 1, dtype=np.int64)
    w = BitWriter()
    write_signed_series(w, md.word_offsets - i * expected_off)
    write_signed_series(w, anchors - i * expected_grp)
    for k, (states, g, anchor) in enumerate(
        zip(md.lane_states, groups, anchors)
    ):
        w.write_bits_array(states, 16)
        diffs = anchor - g
        width = max(1, int(diffs.max()).bit_length())
        width += EXTRA_BITS if k == 0 else 0
        w.write_bits(width - 1, 5)
        w.write_bits_array(diffs, width)
    section = b"".join(
        encode_uvarint(v)
        for v in (K, md.num_symbols, md.num_words, len(groups))
    ) + w.to_bytes()
    widened = minimal[:start] + section + minimal[parsed.payload_offset :]
    return data, minimal, widened
