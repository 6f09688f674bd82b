"""Closed-form subpacketization analytics and parameter sweeps.

The construction for odd K = 2q+1, even t = 2r splits each file into
F_PT = sum_k alpha_k * f_k packets with alpha = (0, 2, 4, ..., t-2, t, ..., t)
and f_k = C(q+1, k-1) * C(q, t-k+1); the baseline uses t * C(K, t).  For
fixed t the ratio falls strictly with q toward 1 - C(t, r) / 2^(t+1).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import binom
from .scheme import SystemParams, UserGrouping, count_vectors, frac_str


def theorem_alpha(t: int) -> tuple[int, ...]:
    """Aggregate FS vector (0, 2, ..., t-2, then t repeated r+1 times)."""
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t must be even and positive, got {t}")
    r = t // 2
    return tuple(2 * (k - 1) for k in range(1, r + 1)) + (t,) * (r + 1)


def subfile_counts(q: int, t: int) -> tuple[int, ...]:
    """f_k = C(q+1, k-1) * C(q, t-k+1) for k in 1..t+1."""
    return tuple(binom(q + 1, k - 1) * binom(q, t - k + 1) for k in range(1, t + 2))


def f_pt(q: int, r: int) -> int:
    """Subpacketization of the heterogeneous construction at (K, t) = (2q+1, 2r)."""
    t = 2 * r
    if q < t + 1:
        raise ValueError(f"need q >= t+1, got q={q}, t={t}")
    return sum(a * f for a, f in zip(theorem_alpha(t), subfile_counts(q, t)))


def f_jcm(K: int, t: int) -> int:
    """Baseline subpacketization t * C(K, t)."""
    if K <= t:
        raise ValueError(f"need K > t, got K={K}, t={t}")
    return t * binom(K, t)


def ratio(q: int, r: int) -> Fraction:
    """Exact F_PT / F_JCM at (2q+1, 2r)."""
    return Fraction(f_pt(q, r), f_jcm(2 * q + 1, 2 * r))


def asymptotic_ratio(t: int) -> tuple[Fraction, float]:
    """Large-q limit of the ratio: exactly 1 - C(t, r)/2^(t+1).

    The float is the Stirling approximation 1 - sqrt(1/(2 pi t)), returned
    for display next to the exact value.
    """
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t must be even and positive, got {t}")
    r = t // 2
    exact = 1 - Fraction(binom(t, r), 2 ** (t + 1))
    return exact, 1.0 - math.sqrt(1.0 / (2.0 * math.pi * t))


def gamma_terms(q: int, t: int) -> tuple[tuple[int, ...], int, int]:
    """The memory constraint at (K, t) = (2q+1, t) with grouping (q+1, q).

    Returns the cache-difference vector delta (per subfile type, a
    second-group user's cached count minus a first-group user's) and its dot
    products with the staircase vector (0, 1, ..., t) and the hill vector
    min(k-1, t+1-k); the packet-size ratio is -(first) / (second).
    """
    counts = count_vectors(
        SystemParams(K=2 * q + 1, t=t, N=2 * q + 1), UserGrouping((q + 1, q))
    )
    delta = counts.deltas[0]
    a1 = sum((k - 1) * d for k, d in enumerate(delta, start=1))
    a2 = sum(min(k - 1, t + 1 - k) * d for k, d in enumerate(delta, start=1))
    return delta, a1, a2


def _gamma_for(q: int, r: int) -> Fraction:
    """Packet-size ratio of the construction at (2q+1, 2r), from the memory constraint."""
    _, a1, a2 = gamma_terms(q, 2 * r)
    return Fraction(-a1, a2)


@dataclass(frozen=True)
class RatioRecord:
    """One sweep point: subpacketization of both schemes plus exact ratios."""

    K: int
    t: int
    q: int
    r: int
    F_PT: int
    F_JCM: int
    ratio: Fraction
    asymptote: Fraction
    gamma: Fraction


def sweep(t_list: Sequence[int], q_max: int | None = None) -> list[RatioRecord]:
    """Ratio records over a (t, q) grid, sorted by (t, q).

    For each t, q runs from t+1 up to q_max (default t+50).
    """
    records = []
    for t in sorted(t_list):
        if t % 2 != 0 or t < 2:
            raise ValueError(f"t must be even and positive, got {t}")
        r = t // 2
        asymptote = asymptotic_ratio(t)[0]
        for q in range(t + 1, (q_max if q_max is not None else t + 50) + 1):
            records.append(
                RatioRecord(
                    K=2 * q + 1,
                    t=t,
                    q=q,
                    r=r,
                    F_PT=f_pt(q, r),
                    F_JCM=f_jcm(2 * q + 1, t),
                    ratio=ratio(q, r),
                    asymptote=asymptote,
                    gamma=_gamma_for(q, r),
                )
            )
    return records


_CSV_COLUMNS = (
    "K", "t", "q", "r", "F_PT", "F_JCM",
    "ratio_exact", "ratio_float", "asymptote_exact", "asymptote_float", "gamma",
)


def _float12(x: Fraction) -> str:
    return f"{float(x):.12g}"


def record_row(rec: RatioRecord) -> dict[str, object]:
    return {
        "K": rec.K,
        "t": rec.t,
        "q": rec.q,
        "r": rec.r,
        "F_PT": rec.F_PT,
        "F_JCM": rec.F_JCM,
        "ratio_exact": frac_str(rec.ratio),
        "ratio_float": _float12(rec.ratio),
        "asymptote_exact": frac_str(rec.asymptote),
        "asymptote_float": _float12(rec.asymptote),
        "gamma": frac_str(rec.gamma),
    }


def records_to_csv(records: Sequence[RatioRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow(record_row(rec))
    return buf.getvalue()


def records_to_json(records: Sequence[RatioRecord]) -> str:
    return json.dumps([record_row(rec) for rec in records], indent=2)
