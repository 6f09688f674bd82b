"""Closed-form subpacketization analytics and parameter sweeps.

The construction for odd K = 2q+1, even t = 2r splits each file into
F_PT = alpha . F packets: alpha and gamma from one ``derive`` per t, F from
``count_vectors(t, (q+1, q))``, which builds no parameter object for a point
it accepts; the baseline uses t * C(K, t).  For fixed t the ratio
falls strictly with q toward 1 - C(t, r) / 2^(t+1).  Counts stay integer;
a ``Fraction`` is built only for a reported ratio, asymptote or gamma.

For fixed t, F_PT, F_JCM and the two memory terms are integer polynomials in
q of degree at most t, so ``sweep`` reads the owners at q = t+1 .. 2t+1 only
and reaches every later q exactly from their Newton coefficients at q = t+1,
built per call: t ``itertools.accumulate`` running-sum passes per quantity.
``ratios`` seeds F_PT the same way over lemma 1's q set.  ``_rows`` formats
each sweep row once, for the JSON and for the CSV's one ``%`` template.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Sequence

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


def ratios(qs: Sequence[int], t: int) -> list[Fraction]:
    """``ratio`` at each of the increasing ``qs``, from t+1 ``f_pt`` values.

    ``f_pt`` is read at qs[0] .. qs[0]+t only, so it stays the one gate on q;
    each F_PT is then sum_j c_j C(q - qs[0], j) over their Newton coefficients,
    so a sparse q set costs no steps across its span.
    """
    q0 = qs[0]
    table = _differences([f_pt(q0 + j, t) for j in range(t + 1)])
    return [Fraction(sum(map(operator.mul, table, map(math.comb, repeat(q - q0), range(t + 1)))),
                     f_jcm(2 * q + 1, t)) for q in qs]


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
    The first t+1 points seed F_PT and the memory terms (a1, a2) from one
    ``count_vectors`` each and F_JCM from ``f_jcm``; ``_extended`` carries the
    four on exactly (each has degree at most t in q).  Per point only the
    ratio's ``Fraction`` and gamma's ``second_ratio`` remain.
    """
    records = []
    for t in sorted(set(t_list)):
        asymptote = asymptotic_ratio(t)
        qs = range(t + 1, (q_max if q_max is not None else t + 50) + 1)
        if not qs:
            raise ValueError(f"q_max={q_max} leaves t={t} no point (need q_max >= {t + 1})")
        r = t // 2
        intermediate = theorem1_fs(t).intermediate
        seeds = []
        for q in qs[:t + 1]:
            counts = count_vectors(t, (q + 1, q))
            seeds.append((_packets(counts, t), f_jcm(2 * q + 1, t),
                          *memory_terms(intermediate, counts.deltas[0])))
        columns = [_extended(column, len(qs)) for column in zip(*seeds)]
        for q, F_PT, F_JCM, a1, a2 in zip(qs, *columns):
            records.append(RatioRecord(2 * q + 1, t, q, r, F_PT, F_JCM, Fraction(F_PT, F_JCM),
                                       asymptote, second_ratio(a1, a2)))
    return records


def _differences(values: Sequence[int]) -> list[int]:
    """The Newton coefficients c_j = Delta^j f(q0) of ``values`` = f(q0), f(q0+1), ...:
    f(q0 + x) = sum_j c_j C(x, j) for the polynomial of degree below len(values) through them."""
    table = list(values)
    for j in range(1, len(table)):
        table[j:] = map(operator.sub, table[j:], table[j - 1:-1])
    return table


def _extended(values: Sequence[int], n: int) -> list[int]:
    """The first n values, at consecutive q, of the integer polynomial of degree below
    len(values) that starts with ``values`` (which come back first, exactly).

    From the top Newton coefficient (``_differences``) n times, each lower coefficient c
    turns the column into its running sums from c: one ``accumulate`` pass, no step per point.
    """
    if n == 0:
        return []
    *lower, top = _differences(values)
    column = [top] * n
    for c in reversed(lower):
        column = list(accumulate(column[:-1], initial=c))
    return column


_CSV_COLUMNS = (
    "K", "t", "q", "r", "F_PT", "F_JCM",
    "ratio_exact", "ratio_float", "asymptote_exact", "asymptote_float", "gamma",
)


# Every field is an int, a p/q string or a %.12g float, so none ever needs quoting.
_LINE = ",".join(["%s"] * len(_CSV_COLUMNS)) + "\n"


def _rows(records: Iterable[RatioRecord]) -> Iterator[tuple]:
    """Each record's sweep row, one value per ``_CSV_COLUMNS`` entry; floats to 12 significant digits.

    The asymptote is formatted only when it is a new object (once per t in a sweep);
    F_PT / F_JCM is correctly rounded, so it is the float of the exact ratio.
    """
    asymptote = None
    for rec in records:
        if rec.asymptote is not asymptote:
            asymptote = rec.asymptote
            asymptote_fields = frac_str(asymptote), f"{float(asymptote):.12g}"
        yield (rec.K, rec.t, rec.q, rec.r, rec.F_PT, rec.F_JCM,
               frac_str(rec.ratio), f"{rec.F_PT / rec.F_JCM:.12g}", *asymptote_fields,
               frac_str(rec.gamma))


def records_to_csv(records: Iterable[RatioRecord]) -> str:
    return ",".join(_CSV_COLUMNS) + "\n" + "".join(_LINE % row for row in _rows(records))


def records_to_json(records: Iterable[RatioRecord]) -> str:
    return json.dumps([dict(zip(_CSV_COLUMNS, row)) for row in _rows(records)], indent=2)
