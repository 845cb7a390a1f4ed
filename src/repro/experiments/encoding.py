"""Encoder-side cost accounting (paper §6 discussion).

Recoil deliberately trades encoder parallelism away ("Recoil encoding
cannot be done in parallel and encoding throughput is limited") and
argues this is acceptable for content delivery.  This experiment makes
the trade-off concrete:

- wall-clock encode throughput of Single-Thread, Conventional (which
  could parallelize over partitions) and Recoil (single interleaved
  pass + event recording + split selection);
- the breakdown of Recoil's extra encode cost (event recording,
  split selection) relative to the plain interleaved pass;
- the *serving* cost it buys down: per-request shrink time vs
  per-request re-encode time for Conventional.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import ConventionalCodec
from repro.core import RecoilCodec, recoil_shrink
from repro.data import load_dataset
from repro.experiments.common import provider_for
from repro.parallel import compiled
from repro.rans.interleaved import InterleavedEncoder
from repro.stats.report import Table


@dataclass
class EncodingResult:
    dataset: str
    rows: dict[str, float] = field(default_factory=dict)
    table: Table | None = None


def run(
    dataset: str = "enwik8",
    profile: str = "ci",
    quant_bits: int = 11,
    splits: int = 256,
) -> EncodingResult:
    data = load_dataset(dataset, profile)
    symbols, provider = provider_for(data, quant_bits)
    res = EncodingResult(dataset=dataset)
    mb = len(symbols) / 1e6

    encoder = InterleavedEncoder(provider)
    # Warm one-time lazy state (the compiled kernels, provider
    # gather/encode tables, this thread's scratch arena) so the timed
    # rows compare steady-state loops, not setup.
    compiled.warm_up()
    encoder.encode_reference(symbols[:1024])
    encoder.encode(symbols[:1024])

    t0 = time.perf_counter()
    encoder.encode_reference(symbols)
    res.rows["reference loop encode (s)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    encoder.encode(symbols)
    plain = time.perf_counter() - t0
    res.rows["fused interleaved encode (s)"] = plain

    t0 = time.perf_counter()
    encoder.encode(symbols, record_events=True)
    with_events = time.perf_counter() - t0
    res.rows["  + in-kernel event recording (s)"] = with_events

    codec = RecoilCodec(provider)
    t0 = time.perf_counter()
    blob = codec.compress(symbols, splits)
    full = time.perf_counter() - t0
    res.rows["  + split selection + container (s)"] = full

    conv = ConventionalCodec(provider)
    t0 = time.perf_counter()
    conv.compress(symbols, splits)
    conv_time = time.perf_counter() - t0
    res.rows["conventional encode (s)"] = conv_time

    t0 = time.perf_counter()
    recoil_shrink(blob, 16)
    shrink = time.perf_counter() - t0
    res.rows["recoil per-request shrink (s)"] = shrink

    t0 = time.perf_counter()
    conv.compress(symbols, 16)
    reenc = time.perf_counter() - t0
    res.rows["conventional per-request re-encode (s)"] = reenc

    table = Table(
        headers=["operation", "seconds", "MB/s"],
        title=(
            f"Encoder-side costs on {dataset} ({mb:.1f} MB, "
            f"n={quant_bits}, {splits} splits)"
        ),
    )
    for name, sec in res.rows.items():
        table.add_row(name, f"{sec:.3f}", f"{mb / sec:.1f}" if sec else "-")
    res.table = table
    return res


if __name__ == "__main__":
    print(run().table)
