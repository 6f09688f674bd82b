"""Exact combinatorics underlying packet-type caching schemes.

Everything here is integer or rational and exact: binomial coefficients via
big integers, subset enumeration classified by projection type, and the
hypergeometric law of the ratio analysis as integer weights.  No floats.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence


class ComponentTooLarge(ValueError):
    """A type-vector component exceeds the size of its user group."""


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact big integer; 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def vector_lcm(factors: Sequence[int]) -> int:
    """LCM of a set of splitting factors, with ``math.lcm``'s own rule lcm(0, x) = 0.

    A zero factor means the subfile type is excluded from the coupled
    group, which annihilates any other contribution.
    """
    if not factors:
        raise ValueError("no factors to merge")
    if any(f < 0 for f in factors):
        raise ValueError(f"factors must be non-negative, got {factors}")
    return math.lcm(*factors)


def subsets_by_type(groups: Sequence[Sequence[int]], type_vec: Sequence[int]) -> list[tuple[int, ...]]:
    """Every subset of the user set whose projection sizes match ``type_vec``.

    ``groups`` are the concrete user groups (disjoint, increasing ids within
    each group, all ids in group i below those of group i+1).  The result is
    in lexicographic order over sorted member tuples and has exactly
    prod_i C(|groups[i]|, type_vec[i]) elements.
    """
    if len(groups) != len(type_vec):
        raise ValueError(
            f"type vector length {len(type_vec)} != number of groups {len(groups)}"
        )
    for members, c in zip(groups, type_vec):
        if c < 0:
            raise ComponentTooLarge(f"negative component {c}")
        if c > len(members):
            raise ComponentTooLarge(
                f"component {c} exceeds group size {len(members)}"
            )
    per_group = [itertools.combinations(members, c) for members, c in zip(groups, type_vec)]
    return [tuple(itertools.chain.from_iterable(parts)) for parts in itertools.product(*per_group)]


def hypergeo_weights(q: int, t: int) -> tuple[tuple[int, ...], int]:
    """J ~ Hypergeo(2q+1, q+1, t) in integers: Pr(J = j) = weights[j] / total.

    weights[j] = C(q+1, j) C(q, t-j) for j = 0..t, total = C(2q+1, t).  J counts
    the marked among t draws without replacement from 2q+1 (q+1 marked, q not):
    the first type component of a uniformly random t-subset under (q+1, q).
    """
    if q < 1 or t < 1:
        raise ValueError(f"need q >= 1 and t >= 1, got q={q}, t={t}")
    if t > q:
        raise ValueError(f"need t <= q, got t={t}, q={q}")
    weights = tuple(math.comb(q + 1, j) * math.comb(q, t - j) for j in range(t + 1))
    return weights, math.comb(2 * q + 1, t)

