"""Closed-form subpacketization analytics and parameter sweeps.

The construction for odd K = 2q+1, even t = 2r splits each file into
F_PT = alpha . F packets: alpha and gamma from one ``derive`` per t, F from
``count_vectors(t, (q+1, q))``, which builds no parameter object for a point
it accepts; the baseline uses t * C(K, t).  For fixed t the ratio
falls strictly with q toward 1 - C(t, r) / 2^(t+1).  Counts stay integer;
a ``Fraction`` is built only for a reported ratio, asymptote or gamma.

For fixed t, F_PT and the two memory terms are integer polynomials in q of
degree at most t, so ``sweep`` reads the owners at q = t+1 .. 2t+1 only and
reaches every later q exactly through their forward-difference table at
q = t+1, built inside the call: t integer additions per quantity and point.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scheme import (CountVectors, FsVectors, SystemParams, count_vectors, derive, frac_str,
                     memory_terms, preset, second_ratio)


@functools.cache
def theorem1_fs(t: int) -> FsVectors:
    """Theorem 1's FS vectors at cache size t, derived once: the two-group
    types do not depend on q once q2 >= t, so q = t+1 serves every q."""
    K = 2 * t + 3
    return derive(preset("theorem1", SystemParams(K=K, t=t, N=K))).fs


def _packets(counts: CountVectors, t: int) -> int:
    """F_PT = alpha . F for the construction's aggregate FS vector alpha."""
    return sum(map(operator.mul, theorem1_fs(t).aggregate, counts.F))


def f_pt(q: int, t: int) -> int:
    """Subpacketization at (K, t) = (2q+1, t); q < t+1 is rejected here: ``count_vectors`` takes q = t."""
    if q < t + 1:
        raise ValueError(f"need q >= t+1, got q={q}, t={t}")
    return _packets(count_vectors(t, (q + 1, q)), t)


def f_jcm(K: int, t: int) -> int:
    """Baseline subpacketization t * C(K, t)."""
    if K <= t:
        raise ValueError(f"need K > t, got K={K}, t={t}")
    return t * math.comb(K, t)


def ratio(q: int, t: int) -> Fraction:
    """Exact F_PT / F_JCM at (2q+1, t)."""
    return Fraction(f_pt(q, t), f_jcm(2 * q + 1, t))


def asymptotic_ratio(t: int) -> Fraction:
    """Large-q limit of the ratio: exactly 1 - C(t, r)/2^(t+1)."""
    if t % 2 != 0 or t < 2:
        raise ValueError(
            f"even t required for theorem1 sweep: t must be even and positive, got {t}; "
            "the t = 3 construction is a preset: ptcache construct --preset odd_t3 --K 11 --t 3"
        )
    return 1 - Fraction(math.comb(t, t // 2), 2 ** (t + 1))


def gamma_terms(q: int, t: int) -> tuple[tuple[int, ...], int, int]:
    """The memory constraint at (K, t) = (2q+1, t) with grouping (q+1, q).

    Returns the cache-difference vector delta (per subfile type, a
    second-group user's cached count minus a first-group user's) and its dot
    products with theorem 1's two intermediate FS vectors; the packet-size
    ratio is -(first) / (second).
    """
    delta = count_vectors(t, (q + 1, q)).deltas[0]
    a1, a2 = memory_terms(theorem1_fs(t).intermediate, delta)
    return delta, a1, a2


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
    """Ratio records over a (t, q) grid, sorted by (t, q), one per point.

    For each t, q runs from t+1 up to q_max (default t+50); no q is a ValueError.
    The first t+1 points seed F_PT and the memory terms (a1, a2) from the
    owners, one ``count_vectors`` each; ``_extended`` carries the three on
    exactly (each has degree at most t in q).  F_JCM is one ``math.comb`` and
    gamma one ``second_ratio`` per point.
    """
    records = []
    for t in sorted(set(t_list)):
        asymptote = asymptotic_ratio(t)
        qs = range(t + 1, (q_max if q_max is not None else t + 50) + 1)
        if not qs:
            raise ValueError(f"q_max={q_max} leaves t={t} no point (need q_max >= {t + 1})")
        intermediate = theorem1_fs(t).intermediate
        seeds = []
        for q in qs[:t + 1]:
            counts = count_vectors(t, (q + 1, q))
            seeds.append((_packets(counts, t), *memory_terms(intermediate, counts.deltas[0])))
        columns = (_extended(column, len(qs)) for column in zip(*seeds))
        for q, F_PT, a1, a2 in zip(qs, *columns):
            F_JCM = f_jcm(2 * q + 1, t)
            records.append(
                RatioRecord(
                    K=2 * q + 1,
                    t=t,
                    q=q,
                    r=t // 2,
                    F_PT=F_PT,
                    F_JCM=F_JCM,
                    ratio=Fraction(F_PT, F_JCM),
                    asymptote=asymptote,
                    gamma=second_ratio(a1, a2),
                )
            )
    return records


def _extended(values: Sequence[int], n: int) -> Iterator[int]:
    """The first n values, at consecutive q, of the integer polynomial of degree below
    len(values) that starts with ``values`` (which come back first, exactly).

    The table holds the Newton coefficients c_j = Delta^j f(q0), so that
    f(q0 + x) = sum_j c_j C(x, j); a step to the next q adds c_(j+1) to each c_j.
    """
    table = list(values)
    for j in range(1, len(table)):
        table[j:] = map(operator.sub, table[j:], table[j - 1:-1])
    for _ in range(n):
        yield table[0]
        table[:-1] = map(operator.add, table, table[1:])


_CSV_COLUMNS = (
    "K", "t", "q", "r", "F_PT", "F_JCM",
    "ratio_exact", "ratio_float", "asymptote_exact", "asymptote_float", "gamma",
)


def _row(rec: RatioRecord) -> tuple:
    """``rec``'s sweep row, one value per ``_CSV_COLUMNS`` entry; floats to 12 significant digits."""
    return (rec.K, rec.t, rec.q, rec.r, rec.F_PT, rec.F_JCM,
            frac_str(rec.ratio), f"{float(rec.ratio):.12g}",
            frac_str(rec.asymptote), f"{float(rec.asymptote):.12g}", frac_str(rec.gamma))


def records_to_csv(records: Sequence[RatioRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(map(_row, records))  # streamed, one row alive
    return buf.getvalue()


def records_to_json(records: Sequence[RatioRecord]) -> str:
    return json.dumps([dict(zip(_CSV_COLUMNS, _row(rec))) for rec in records], indent=2)
