import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ptcache.combinatorics import (
    ComponentTooLarge,
    binom,
    hypergeo_weights,
    subsets_by_type,
    vector_lcm,
)


def pascal_binom(n: int, k: int) -> int:
    """Independent oracle: build Pascal's triangle row by row."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k] if 0 <= k <= n else 0


def test_binom_values():
    assert binom(7, 2) == 21
    assert binom(5, 0) == 1
    assert binom(11, 4) == 330 == pascal_binom(11, 4)


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(0, 40), st.integers(-2, 42))
def test_binom_matches_pascal(n, k):
    assert binom(n, k) == pascal_binom(n, k)


GROUPS_4_3 = ((1, 2, 3, 4), (5, 6, 7))


def brute_force_by_type(groups, type_vec):
    """Oracle: filter all subsets of the union by projection sizes."""
    universe = [u for g in groups for u in g]
    size = sum(type_vec)
    out = []
    for cand in itertools.combinations(universe, size):
        proj = tuple(sum(1 for u in cand if u in g) for g in groups)
        if proj == tuple(type_vec):
            out.append(cand)
    return out


def test_subsets_by_type_mixed():
    got = subsets_by_type(GROUPS_4_3, (1, 1))
    assert len(got) == 12 == binom(4, 1) * binom(3, 1)
    assert sorted(got) == sorted(brute_force_by_type(GROUPS_4_3, (1, 1)))
    assert got == sorted(got)  # lexicographic


def test_subsets_by_type_one_sided():
    got = subsets_by_type(GROUPS_4_3, (0, 2))
    assert got == [(5, 6), (5, 7), (6, 7)]


def test_subsets_by_type_empty():
    assert subsets_by_type(GROUPS_4_3, (0, 0)) == [()]


def test_subsets_by_type_component_too_large():
    with pytest.raises(ComponentTooLarge):
        subsets_by_type(GROUPS_4_3, (0, 4))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 6))
def test_types_partition_all_subsets(q1, q2, t):
    """Every t-subset belongs to exactly one type class."""
    K = q1 + q2
    if t > K:
        return
    groups = (tuple(range(1, q1 + 1)), tuple(range(q1 + 1, K + 1)))
    seen = []
    for tv in [(c, t - c) for c in range(t + 1) if c <= q1 and t - c <= q2]:
        seen.extend(subsets_by_type(groups, tv))
    assert len(seen) == binom(K, t)
    assert len(set(seen)) == len(seen)


def test_hypergeo_weights_values():
    assert hypergeo_weights(3, 2) == ((3, 12, 6), 21)


@given(st.integers(1, 30), st.integers(1, 30))
def test_hypergeo_pmf_normalizes(q, t):
    """The weights over their total are a pmf: they sum to the total."""
    if t > q:
        return
    weights, total = hypergeo_weights(q, t)
    assert sum(weights) == total


@given(
    st.integers(-1000, 1000), st.integers(1, 1000),
    st.integers(-1000, 1000), st.integers(1, 1000),
)
def test_fraction_round_trip(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x


def test_vector_lcm():
    assert vector_lcm([2, 2]) == 2
    assert vector_lcm([1, 2]) == 2
    assert vector_lcm([2, 3]) == 6
    assert vector_lcm([0, 5]) == 0
    assert vector_lcm([3, 0]) == vector_lcm([0]) == 0  # math.lcm's own zero rule
    assert vector_lcm([4]) == 4
    with pytest.raises(ValueError):
        vector_lcm([])
    with pytest.raises(ValueError):
        vector_lcm([-1, 2])


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: subsets_by_type([(1, 2), (3,)], (1,)), ValueError,
                 r"^type vector length 1 != number of groups 2$", id="subsets-length"),
    pytest.param(lambda: subsets_by_type([(1, 2), (3,)], (1, -1)), ComponentTooLarge,
                 r"^negative component -1$", id="subsets-negative"),
    pytest.param(lambda: hypergeo_weights(0, 1), ValueError,
                 r"^need q >= 1 and t >= 1, got q=0, t=1$", id="pmf-q0"),
    pytest.param(lambda: hypergeo_weights(3, 0), ValueError,
                 r"^need q >= 1 and t >= 1, got q=3, t=0$", id="pmf-t0"),
    pytest.param(lambda: hypergeo_weights(2, 3), ValueError,
                 r"^need t <= q, got t=3, q=2$", id="pmf-t-above-q"),
])
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
