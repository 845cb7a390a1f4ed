"""Efficient metadata storage (paper §4.3, Tables 1–2).

Only differences from expectations are stored:

- the ``i``-th split's bitstream offset is expected at ``i * ceil(B/M)``;
- the ``i``-th split's anchor (max Symbol Group ID) is expected at
  ``i * ceil(G/M)`` where ``G = ceil(N/K)`` is the total group count;
- per-lane Symbol Group IDs are stored as non-negative differences
  from the split's anchor (dropping the sign bit, since the anchor is
  the maximum);
- intermediate states are stored as-is in 16 bits each (Lemma 3.1).

Difference series are bit-packed: a width field holding ``width - 1``
followed by fixed-width values (paper's
``max floor(log2(v_i + 1)) - 1`` scheme, with one bit used even for
all-zero series).  Deviation from the paper, documented in DESIGN.md:
we use a 5-bit width field everywhere (the paper uses 4 bits for the
group-ID series), buying robustness for one extra bit per series.

Signed series carry one leading flag bit: when 0, no per-element sign
bits follow (the common case of all-non-negative offsets diffs).
"""

from __future__ import annotations

import numpy as np

from repro.bitio import (
    BitReader,
    BitWriter,
    decode_uvarint,
    encode_uvarint,
    gather_bits,
)
from repro.core.metadata import RecoilMetadata, lane_group_ids
from repro.errors import MetadataError

_WIDTH_FIELD_BITS = 5
_MAX_WIDTH = 1 << _WIDTH_FIELD_BITS  # widths 1..32


def _series_width(values: np.ndarray) -> int:
    """Bits needed per magnitude (>= 1 even for all-zero series)."""
    if len(values) == 0:
        return 1
    top = int(np.abs(values).max())
    return max(1, top.bit_length())


def write_signed_series(writer: BitWriter, values: np.ndarray) -> None:
    """Width field + sign-presence flag + values.

    When every value is non-negative the per-element sign bits are
    omitted entirely (flag bit 0).
    """
    values = np.asarray(values, dtype=np.int64)
    width = _series_width(values)
    if width > _MAX_WIDTH:
        raise MetadataError(f"series value too large for {_MAX_WIDTH} bits")
    has_neg = bool(np.any(values < 0))
    writer.write_bits(width - 1, _WIDTH_FIELD_BITS)
    writer.write_bit(1 if has_neg else 0)
    if has_neg:
        # sign bit + magnitude per element == one (width + 1)-bit field.
        combined = ((values < 0).astype(np.int64) << width) | np.abs(values)
        writer.write_bits_array(combined, width + 1)
    else:
        writer.write_bits_array(values, width)


def read_signed_series(reader: BitReader, count: int) -> np.ndarray:
    width = reader.read_bits(_WIDTH_FIELD_BITS) + 1
    has_neg = reader.read_bit()
    if not has_neg:
        return reader.read_bits_array(count, width)
    combined = reader.read_bits_array(count, width + 1)
    mag = combined & ((1 << width) - 1)
    return np.where(combined >> width, -mag, mag)


# ---------------------------------------------------------------------------


def serialize_metadata(md: RecoilMetadata) -> bytes:
    """Render :class:`RecoilMetadata` into the compact §4.3 format.

    Group IDs, anchors, record widths and the 16-bit state check are
    computed once over the metadata's ``(n, K)`` arrays.  Each entry
    record is then folded into one Python int and written with one
    call — no per-bit arrays, whose peak size is many times the
    metadata's (DESIGN.md §5).
    """
    n = len(md.word_offsets)
    head = bytearray()
    head += encode_uvarint(md.lanes)
    head += encode_uvarint(md.num_symbols)
    head += encode_uvarint(md.num_words)
    head += encode_uvarint(n)
    if n == 0:
        return bytes(head)

    K = md.lanes
    M = md.num_threads
    expected_off = -(-md.num_words // M)
    total_groups = -(-md.num_symbols // K)
    expected_grp = -(-total_groups // M)

    offsets = md.word_offsets
    groups = lane_group_ids(md.lane_indices, K)
    states = md.lane_states
    anchors = groups.max(axis=1)
    i = np.arange(1, n + 1, dtype=np.int64)

    w = BitWriter()
    write_signed_series(w, offsets - i * expected_off)
    write_signed_series(w, anchors - i * expected_grp)
    if np.any(states >= 1 << 16):
        raise MetadataError(
            "entry state exceeds 16 bits — Lemma 3.1 violated?"
        )
    # Record: [K x 16-bit states][width field][K x width-bit diffs];
    # the diffs are unsigned because the anchor is the row maximum.
    diffs = anchors[:, None] - groups
    widths = [max(1, top.bit_length()) for top in diffs.max(axis=1).tolist()]
    if max(widths) > _MAX_WIDTH:
        raise MetadataError(f"series value too large for {_MAX_WIDTH} bits")
    state_bytes = states.astype(">u2").tobytes()
    span = 2 * K
    for r, (width, row) in enumerate(zip(widths, diffs.tolist())):
        rec = int.from_bytes(state_bytes[r * span : (r + 1) * span], "big")
        rec = (rec << _WIDTH_FIELD_BITS) | (width - 1)
        for v in row:
            rec = (rec << width) | v
        w.write_bits(rec, 8 * span + _WIDTH_FIELD_BITS + K * width)
    return bytes(head) + w.to_bytes()


def parse_metadata(blob: bytes, offset: int = 0) -> tuple[RecoilMetadata, int]:
    """Inverse of :func:`serialize_metadata`.

    Returns ``(metadata, next_offset)`` where ``next_offset`` points
    just past the metadata section (byte-aligned).
    """
    lanes, pos = decode_uvarint(blob, offset)
    num_symbols, pos = decode_uvarint(blob, pos)
    num_words, pos = decode_uvarint(blob, pos)
    num_entries, pos = decode_uvarint(blob, pos)
    if num_entries == 0:
        none = np.zeros((0, lanes), dtype=np.int64)
        md = RecoilMetadata(num_symbols, num_words, lanes, [], none, none)
        return md, pos
    # Every entry consumes at least one bit of the section; a count
    # beyond that is a corrupt length field, not a real container —
    # refuse before sizing arrays (or looping) on it.
    if num_entries > 8 * max(len(blob) - pos, 0):
        raise MetadataError(
            f"implausible metadata entry count {num_entries} for "
            f"{len(blob) - pos} remaining bytes"
        )

    M = num_entries + 1
    expected_off = -(-num_words // M)
    total_groups = -(-num_symbols // lanes)
    expected_grp = -(-total_groups // M)

    body = blob[pos:]
    r = BitReader(body)
    off_diffs = read_signed_series(r, num_entries)
    grp_diffs = read_signed_series(r, num_entries)
    i = np.arange(1, num_entries + 1, dtype=np.int64)
    offsets = off_diffs + i * expected_off
    anchors = grp_diffs + i * expected_grp

    # Entry records are [lanes x 16-bit states][5-bit width field]
    # [lanes x width-bit diffs].  Only the tiny width fields chain
    # record offsets sequentially; scan those with scalar reads, then
    # gather every record's state and diff payloads in two vectorized
    # passes (the PR 2 bulk-bit-I/O path) instead of per-entry reader
    # calls.
    base = r.bit_position
    total_bits = 8 * len(body)
    starts = np.empty(num_entries, dtype=np.int64)
    widths = np.empty(num_entries, dtype=np.int64)
    b = base
    states_bits = 16 * lanes
    for k in range(num_entries):
        wf = b + states_bits
        if wf + _WIDTH_FIELD_BITS > total_bits:
            raise MetadataError("metadata truncated inside entry records")
        byte = wf >> 3
        chunk = int.from_bytes(body[byte : byte + 2].ljust(2, b"\0"), "big")
        width = ((chunk >> (16 - (wf & 7) - _WIDTH_FIELD_BITS)) & 31) + 1
        starts[k] = b
        widths[k] = width
        b = wf + _WIDTH_FIELD_BITS + width * lanes
    if b > total_bits:
        raise MetadataError("metadata truncated inside entry records")

    # The gathers build bit windows over their whole buffer, and
    # ``body`` extends through the words payload — trim it to the
    # metadata extent (known once the width scan fixed ``b``).
    section = body[: (b + 7) // 8]
    lane_idx = np.arange(lanes, dtype=np.int64)
    state_pos = starts[:, None] + 16 * lane_idx
    states_all = gather_bits(section, state_pos, 16).astype(np.uint32)
    diff_pos = (
        starts[:, None]
        + states_bits
        + _WIDTH_FIELD_BITS
        + widths[:, None] * lane_idx
    )
    diffs_all = gather_bits(section, diff_pos, widths[:, None])
    # Group IDs back to lane indices (inverse of lane_group_ids).
    indices = (anchors[:, None] - diffs_all - 1) * lanes + lane_idx + 1
    md = RecoilMetadata(
        num_symbols, num_words, lanes, offsets, indices, states_all
    )
    return md, pos + (b + 7) // 8


def metadata_size_bytes(md: RecoilMetadata) -> int:
    """Serialized size, for compression-rate accounting."""
    return len(serialize_metadata(md))
