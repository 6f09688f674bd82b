"""Symmetric-splitting baseline scheme and PT-vs-baseline comparison.

The baseline splits every file into C(K,t) subfiles and each subfile into t
packets, with everyone transmitting in every multicast group.  It is routed
through the PT engine as the single-group, all-transmit special case; a tiny
direct enumeration of the two-layer splitting serves as an independent
packet-count oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import verify
from .combinatorics import binom
# Not called here: kept because perfbench/spans.py wraps these baseline bindings.
from .exchange import build_caches, decode, generate_delivery, split_files, total_transmitted_units  # noqa: F401
from .scheme import DerivedScheme, SystemParams, derive, preset


def jcm_construct(K: int, t: int, N: int, unit: int = 1) -> DerivedScheme:
    """The baseline as a derived PT scheme: one group, uniform factor t."""
    return derive(preset("jcm", SystemParams(K=K, t=t, N=N, unit=unit)))


def jcm_packet_count(K: int, t: int) -> int:
    """t * C(K, t), the baseline subpacketization."""
    return t * binom(K, t)


def jcm_direct_packet_ids(K: int, t: int) -> list[tuple[tuple[int, ...], int]]:
    """Direct two-layer enumeration: (t-subset, packet index) pairs.

    Independent of the PT engine; used to cross-check packet counts.
    """
    return [
        (support, i)
        for support in itertools.combinations(range(1, K + 1), t)
        for i in range(1, t + 1)
    ]


class ComparisonFailed(ValueError):
    """A PT-vs-baseline comparison broke one of its guarantees."""


@dataclass(frozen=True)
class ComparisonRecord:
    """Side-by-side outcome of simulating a PT scheme and the baseline."""

    K: int
    t: int
    pt_packets: int
    jcm_packets: int
    pt_rate: Fraction
    jcm_rate: Fraction
    pt_decodes: bool
    jcm_decodes: bool


def compare(
    pt: DerivedScheme, jcm: DerivedScheme, demands: Sequence[int] | None = None, seed: int = 0
) -> ComparisonRecord:
    """Run both schemes through ``verify_end_to_end`` on the same demands and seed.

    Requires matching (K, t); raises ``ComparisonFailed`` if either run
    fails, and unless the rates are equal, PT subpacketization is strictly
    smaller, and both sides decode.
    """
    if (pt.params.K, pt.params.t) != (jcm.params.K, jcm.params.t):
        raise ValueError("schemes must share (K, t) to be comparable")
    if demands is None:
        demands = list(range(1, pt.params.K + 1))
    pt_report = verify.verify_end_to_end(pt, demands, seed)
    jcm_report = verify.verify_end_to_end(jcm, demands, seed)
    for side, report in (("PT", pt_report), ("baseline", jcm_report)):
        if report.failure is not None:
            raise ComparisonFailed(f"{side} run failed: {report.failure}")
    record = ComparisonRecord(
        K=pt.params.K,
        t=pt.params.t,
        pt_packets=pt.packets_per_file,
        jcm_packets=jcm.packets_per_file,
        pt_rate=pt_report.rate,
        jcm_rate=jcm_report.rate,
        pt_decodes=all(pt_report.decode_ok.values()),
        jcm_decodes=all(jcm_report.decode_ok.values()),
    )
    if record.pt_rate != record.jcm_rate:
        raise ComparisonFailed(f"rates differ: PT {record.pt_rate}, baseline {record.jcm_rate}")
    if record.pt_packets >= record.jcm_packets:
        raise ComparisonFailed(
            f"PT needs {record.pt_packets} packets, baseline {record.jcm_packets}"
        )
    if not (record.pt_decodes and record.jcm_decodes):
        raise ComparisonFailed(
            f"decode failed: PT {record.pt_decodes}, baseline {record.jcm_decodes}"
        )
    return record
