"""Symmetric-splitting baseline scheme and PT-vs-baseline comparison.

The baseline splits every file into C(K,t) subfiles and each subfile into t
packets, with everyone transmitting in every multicast group.  It is the
PT engine's single-group, all-transmit special case:
``derive(preset("jcm", params))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import verify
# Not called here: kept because perfbench/spans.py wraps these baseline bindings.
from .exchange import build_caches, decode, generate_delivery, split_files, total_transmitted_units  # noqa: F401
from .scheme import DerivedScheme, derive  # noqa: F401  (derive: wrapped, as above)


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


def compare(pt: DerivedScheme, jcm: DerivedScheme, seed: int = 0) -> ComparisonRecord:
    """Run both schemes through ``verify_end_to_end`` on distinct demands and the same seed.

    Requires matching (K, t); raises ``ComparisonFailed`` unless both runs
    pass (so both decode at the one rate (K-t)/t) and PT subpacketization is
    strictly smaller.
    """
    if (pt.params.K, pt.params.t) != (jcm.params.K, jcm.params.t):
        raise ValueError("schemes must share (K, t) to be comparable")
    pt_report = verify.verify_end_to_end(pt, "distinct", seed)
    jcm_report = verify.verify_end_to_end(jcm, "distinct", seed)
    for side, report in (("PT", pt_report), ("baseline", jcm_report)):
        if not report.passed:
            why = report.failure or ", ".join(report.failed_checks) + " false"
            raise ComparisonFailed(f"{side} run failed: {why}")
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
    if record.pt_packets >= record.jcm_packets:
        raise ComparisonFailed(
            f"PT needs {record.pt_packets} packets, baseline {record.jcm_packets}"
        )
    return record
