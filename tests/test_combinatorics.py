import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ptcache.combinatorics import hypergeo_weights, subsets_by_type


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
    assert len(got) == 12 == math.comb(4, 1) * math.comb(3, 1)
    assert sorted(got) == sorted(brute_force_by_type(GROUPS_4_3, (1, 1)))
    assert got == sorted(got)  # lexicographic


def test_subsets_by_type_one_sided():
    got = subsets_by_type(GROUPS_4_3, (0, 2))
    assert got == [(5, 6), (5, 7), (6, 7)]


def test_subsets_by_type_empty():
    assert subsets_by_type(GROUPS_4_3, (0, 0)) == [()]


def test_subsets_by_type_component_too_large():
    """C(3, 4) = 0: a group of 3 hosts no 4-subset, so the type has no instance."""
    assert subsets_by_type(GROUPS_4_3, (0, 4)) == []


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).flatmap(
    lambda sizes: st.tuples(st.just(sizes), st.tuples(*(st.integers(0, q + 2) for q in sizes)))))
def test_subset_count_is_the_product_of_binomials(point):
    """len == prod_i C(|g_i|, v_i), zero factors included (a component above its group's size)."""
    sizes, v = point
    ids = iter(range(1, sum(sizes) + 1))
    groups = [tuple(next(ids) for _ in range(q)) for q in sizes]
    assert len(subsets_by_type(groups, v)) == math.prod(map(math.comb, sizes, v))


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
    assert len(seen) == math.comb(K, t)
    assert len(set(seen)) == len(seen)


def test_hypergeo_weights_values():
    assert hypergeo_weights(3, 2) == ((3, 12, 6), 21)


@pytest.mark.parametrize("q,t,law", [
    pytest.param(0, 1, ((0, 1), 1), id="pmf-q0"),
    pytest.param(3, 0, ((1,), 1), id="pmf-t0"),
    pytest.param(2, 3, ((0, 3, 6, 1), 10), id="pmf-t-above-q"),
])
def test_hypergeo_weights_support_edges(q, t, law):
    """Every 0 <= t <= 2q+1 is a law, including q = 0, t = 0 and t > q."""
    assert hypergeo_weights(q, t) == law


@pytest.mark.parametrize("q", range(6))
def test_hypergeo_weights_count_draws(q):
    """Over the whole support, t > q included, weights[j] counts the t-subsets
    of 2q+1 items that hold j of the q+1 marked, so they sum to C(2q+1, t)
    (Vandermonde)."""
    for t in range(2 * q + 2):
        draws = itertools.combinations(range(2 * q + 1), t)
        marked = [sum(x <= q for x in draw) for draw in draws]  # items 0..q are marked
        weights, total = hypergeo_weights(q, t)
        assert weights == tuple(marked.count(j) for j in range(t + 1))
        assert sum(weights) == total == len(marked) == math.comb(2 * q + 1, t)


@given(st.integers(0, 30).flatmap(lambda q: st.tuples(st.just(q), st.integers(0, 2 * q + 1))))
def test_hypergeo_pmf_normalizes(point):
    """The weights over their total are a pmf: they sum to the total."""
    weights, total = hypergeo_weights(*point)
    assert sum(weights) == total


@given(
    st.integers(-1000, 1000), st.integers(1, 1000),
    st.integers(-1000, 1000), st.integers(1, 1000),
)
def test_fraction_round_trip(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: subsets_by_type([(1, 2), (3,)], (1,)), ValueError,
                 r"^type vector length 1 != number of groups 2$", id="subsets-length"),
    pytest.param(lambda: subsets_by_type([(1, 2), (3,)], (1, -1)), ValueError,
                 r"^negative component -1$", id="subsets-negative"),
    pytest.param(lambda: hypergeo_weights(2, 6), ValueError,
                 r"^need 0 <= t <= 2q\+1, got q=2, t=6$", id="pmf-t-above-support"),
    pytest.param(lambda: hypergeo_weights(3, -1), ValueError,
                 r"^need 0 <= t <= 2q\+1, got q=3, t=-1$", id="pmf-t-negative"),
])
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
