"""Exact combinatorics underlying packet-type caching schemes.

Everything here is integer and exact: subset enumeration classified by
projection type, and the hypergeometric law of the ratio analysis as
integer weights.  No floats.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence


def subsets_by_type(groups: Sequence[Sequence[int]], type_vec: Sequence[int]) -> list[tuple[int, ...]]:
    """Every subset of the user set whose projection sizes match ``type_vec``.

    ``groups`` are the concrete user groups (disjoint, increasing ids within
    each group, all ids in group i below those of group i+1).  The result is
    in lexicographic order over sorted member tuples and has exactly
    prod_i C(|groups[i]|, type_vec[i]) elements, none if a component exceeds its group.
    """
    if len(groups) != len(type_vec):
        raise ValueError(
            f"type vector length {len(type_vec)} != number of groups {len(groups)}"
        )
    for c in type_vec:
        if c < 0:
            raise ValueError(f"negative component {c}")
    per_group = [itertools.combinations(members, c) for members, c in zip(groups, type_vec)]
    return [tuple(itertools.chain.from_iterable(parts)) for parts in itertools.product(*per_group)]


def hypergeo_weights(q: int, t: int) -> tuple[tuple[int, ...], int]:
    """J ~ Hypergeo(2q+1, q+1, t) in integers: Pr(J = j) = weights[j] / total.

    weights[j] = C(q+1, j) C(q, t-j) for j = 0..t, total = C(2q+1, t).  J counts
    the marked among t draws without replacement from 2q+1 (q+1 marked, q not):
    the first type component of a uniformly random t-subset under (q+1, q).
    """
    if not 0 <= t <= 2 * q + 1:
        raise ValueError(f"need 0 <= t <= 2q+1, got q={q}, t={t}")
    weights = tuple(math.comb(q + 1, j) * math.comb(q, t - j) for j in range(t + 1))
    return weights, math.comb(2 * q + 1, t)

