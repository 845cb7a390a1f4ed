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
    BitWriter,
    decode_uvarint,
    encode_uvarint,
    gather_bits,
    read_bits,
)
from repro.core.metadata import RecoilMetadata, lane_group_ids
from repro.errors import ContainerError, DecodeError, MetadataError

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
    neg = values < 0
    has_neg = int(neg.any())
    writer.write_bits((width - 1) << 1 | has_neg, _WIDTH_FIELD_BITS + 1)
    # With the flag set, sign bit + magnitude is one (width + 1)-bit
    # field per element.
    writer.write_bits_array(
        neg.astype(np.int64) << width | np.abs(values), width + has_neg
    )


def read_signed_series(
    data, pos: int, count: int
) -> tuple[np.ndarray, int]:
    """The ``count`` values :func:`write_signed_series` wrote at bit
    offset ``pos`` of ``data``, and the bit offset just past them."""
    head = read_bits(data, pos, _WIDTH_FIELD_BITS + 1)
    width, has_neg = (head >> 1) + 1, head & 1
    field = width + has_neg  # a sign bit, when present, leads
    first = pos + _WIDTH_FIELD_BITS + 1
    starts = first + field * np.arange(count, dtype=np.int64)
    # One gather: the sign bits (zero-width without the flag) and the
    # magnitudes.
    neg, mag = gather_bits(
        data, starts + [[0], [has_neg]], np.array([[has_neg], [width]])
    )
    return np.where(neg, -mag, mag), first + field * count


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

    :raises MetadataError: for every malformed section — a truncated
        varint, a series or record cut short, no lanes, an implausible
        entry count or entries that break the metadata invariants.
    """
    try:
        return _parse_metadata(blob, offset)
    except (ContainerError, DecodeError) as exc:  # a short varint or read
        raise MetadataError(f"malformed metadata section: {exc}") from exc


def _parse_metadata(blob: bytes, offset: int) -> tuple[RecoilMetadata, int]:
    lanes, pos = decode_uvarint(blob, offset)
    num_symbols, pos = decode_uvarint(blob, pos)
    num_words, pos = decode_uvarint(blob, pos)
    num_entries, pos = decode_uvarint(blob, pos)
    # The counts divide and size int64 arrays, even an empty
    # (0, lanes) one: check them before any arithmetic uses them.
    if not 1 <= lanes < 1 << 32:
        raise MetadataError(f"metadata declares {lanes} lanes")
    if max(num_symbols, num_words) >= 1 << 63:
        raise MetadataError(
            f"metadata declares {num_symbols} symbols and {num_words} "
            f"words, beyond int64"
        )
    if num_entries == 0:
        none = np.zeros((0, lanes), dtype=np.int64)
        md = RecoilMetadata(num_symbols, num_words, lanes, [], none, none)
        return md, pos
    # Each entry takes at least 1 + 1 bits of series and a record of
    # 16 + 1 bits per lane plus its width field, after the two series
    # heads.  A count beyond what the section holds is a corrupt
    # length field or a cut section: refuse before sizing arrays (or
    # looping) on it.
    least = 2 * (_WIDTH_FIELD_BITS + 1) + num_entries * (
        2 + 17 * lanes + _WIDTH_FIELD_BITS
    )
    if least > 8 * (len(blob) - pos):
        raise MetadataError(
            f"implausible metadata: {num_entries} entries of {lanes} "
            f"lanes need {least} bits, {len(blob) - pos} bytes remain"
        )

    M = num_entries + 1
    expected_off = -(-num_words // M)
    total_groups = -(-num_symbols // lanes)
    expected_grp = -(-total_groups // M)

    # Bit offsets run from the start of ``blob``.
    off_diffs, bit = read_signed_series(blob, 8 * pos, num_entries)
    grp_diffs, bit = read_signed_series(blob, bit, num_entries)
    i = np.arange(1, num_entries + 1, dtype=np.int64)
    offsets = off_diffs + i * expected_off
    anchors = grp_diffs + i * expected_grp

    # Entry records are [lanes x 16-bit states][5-bit width field]
    # [lanes x width-bit diffs].  Only the width fields chain one
    # record to the next: read those one at a time, then gather every
    # record's states and diffs.
    state_bits = 16 * lanes
    widths = []
    field = bit + state_bits  # the first record's width field
    for _ in range(num_entries):
        width = read_bits(blob, field, _WIDTH_FIELD_BITS) + 1
        widths.append(width)
        field += _WIDTH_FIELD_BITS + lanes * width + state_bits
    row_widths = np.array(widths, dtype=np.int64)[:, None]
    sizes = state_bits + _WIDTH_FIELD_BITS + lanes * row_widths
    ends = bit + np.cumsum(sizes)
    rows = ends[:, None] - sizes  # each record's first bit
    lane_idx = np.arange(lanes, dtype=np.int64)
    states_all = gather_bits(blob, rows + 16 * lane_idx, 16)
    diffs_all = gather_bits(
        blob,
        rows + state_bits + _WIDTH_FIELD_BITS + row_widths * lane_idx,
        row_widths,
    )
    # Group IDs back to lane indices (inverse of lane_group_ids).
    indices = (anchors[:, None] - diffs_all - 1) * lanes + lane_idx + 1
    md = RecoilMetadata(
        num_symbols, num_words, lanes, offsets, indices, states_all
    )
    return md, (int(ends[-1]) + 7) >> 3


def metadata_size_bytes(md: RecoilMetadata) -> int:
    """Serialized size, for compression-rate accounting."""
    return len(serialize_metadata(md))
