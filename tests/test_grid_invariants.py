"""Grid-level properties of the construction and the byte pipeline.

The end-to-end grid reuses one store and cache set per parameter point and
re-runs delivery/decode across seeds and demand vectors; the smallest point
of each grid additionally goes through the one-call verifier.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptcache.exchange import (
    FileOracle,
    build_caches,
    decode_all,
    generate_delivery,
    split_files,
    total_transmitted_units,
)
from ptcache.scheme import (
    DegenerateSystem,
    IncompatibleLocals,
    InvalidRatio,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UserGrouping,
    derive,
    derive_types,
    preset,
)
from ptcache.verify import demand_vector, verify_claims, verify_end_to_end

END_TO_END_GRID = [(t, q) for t in (2, 4) for q in range(t + 1, t + 7)]


@pytest.mark.parametrize("t,q", END_TO_END_GRID)
def test_theorem1_end_to_end_grid(t, q):
    K = 2 * q + 1
    d = derive(preset("theorem1", SystemParams(K=K, t=t, N=K)))
    oracle = FileOracle()
    store = split_files(d, oracle)
    caches = build_caches(d, store)
    L = d.sizing.L
    for kind in ("distinct", "uniform"):
        demands = demand_vector(kind, K, K)
        for seed in (0, 1, 2):
            messages = generate_delivery(d, store, demands, seed=seed)
            assert all(len(m.constituents) == t for m in messages)
            assert Fraction(total_transmitted_units(messages, d), L) == Fraction(K - t, t)
            recon = decode_all(caches, messages, demands)
            for user in range(1, K + 1):
                assert recon[user] == oracle.file_bytes(demands[user - 1], store.bytes_per_file)


@pytest.mark.parametrize("t", [2, 4])
def test_smallest_point_through_verifier(t):
    q = t + 1
    K = 2 * q + 1
    spec = preset("theorem1", SystemParams(K=K, t=t, N=K))
    for kind in ("distinct", "uniform"):
        for seed in (0, 1, 2):
            report = verify_end_to_end(spec, kind, seed=seed)
            assert report.passed, report.failure


RANDOM_DEMAND_POINTS = [(7, 2), (9, 2), (11, 2), (13, 2), (11, 4), (13, 4)]


@functools.cache
def _theorem1(K, t):
    return derive(preset("theorem1", SystemParams(K=K, t=t, N=K)))


@st.composite
def random_runs(draw):
    """A theorem1 point, a demand vector with repeats, a seed, and a subset of users."""
    K, t = draw(st.sampled_from(RANDOM_DEMAND_POINTS))
    demands = draw(st.lists(st.integers(1, K), min_size=K, max_size=K))
    seed = draw(st.integers(-(2**63), 2**63 - 1))
    users = draw(st.sets(st.integers(1, K), min_size=1))
    return K, t, demands, seed, sorted(users)


@settings(max_examples=40, deadline=None)
@given(random_runs())
def test_random_demands_and_seeds(run):
    """Any demand vector and 8-byte seed passes; decoding a subset of caches changes nothing.

    The audit keeps no messages, so the subset decode runs on the delivery
    ``generate_delivery`` builds from the same split at the same seed.
    """
    K, t, demands, seed, users = run
    d = _theorem1(K, t)
    report = verify_end_to_end(d, demands, seed)
    assert report.passed, report.failure
    store = split_files(d, files=set(demands))
    messages = generate_delivery(d, store, demands, seed=seed)
    caches = build_caches(d, store)
    full = decode_all(caches, messages, demands)
    subset = decode_all([caches[u - 1] for u in users], messages, demands)
    assert subset == {u: full[u] for u in users}


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_claims_grid(t):
    for q in range(t + 1, t + 21):
        results = verify_claims(t, q)
        failed = {k for k, r in results.items() if not r.passed}
        assert not failed, (t, q, failed)


@pytest.mark.parametrize("t", [2, 4])
def test_aggregate_capped_at_t(t):
    for q in range(t + 1, t + 7):
        d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
        assert all(a <= t for a in d.fs.aggregate)
        assert d.fs.aggregate[0] == 0


def test_every_accepted_plan_pair_executes():
    """Exhaust every two-coupled-group blueprint at K in {7, 9}, t in {2, 3}.

    Each grouping q1 > q2 >= t is paired with every pair of selections that
    daggers a non-empty set of occupied components in each group type.
    Every pair must either fail derivation with a named validation error or
    pass the full byte pipeline for distinct and uniform demands.  The
    outcome counts are pinned, so a change to what ``derive`` accepts shows.
    """
    outcomes = Counter()
    for K, t in itertools.product((7, 9), (2, 3)):
        p = SystemParams(K=K, t=t, N=K)
        for q2 in range(t, (K + 1) // 2):
            grouping = UserGrouping((K - q2, q2))
            occupied = [
                [i for i, c in enumerate(s) if c > 0]
                for s in derive_types(p, grouping).group_types
            ]
            choices = [
                [frozenset(c) for n in (1, 2) for c in itertools.combinations(comps, n)]
                for comps in occupied
            ]
            plans = [TransmitterSelection(daggers) for daggers in itertools.product(*choices)]
            for p1, p2 in itertools.product(plans, plans):
                try:
                    d = derive(SchemeSpec(p, grouping, (p1, p2)))
                except (IncompatibleLocals, DegenerateSystem, InvalidRatio) as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                outcomes["derived"] += 1
                for kind in ("distinct", "uniform"):
                    report = verify_end_to_end(d, kind, seed=0)
                    assert report.passed, (K, t, p1, p2, kind, report.failure)
    assert outcomes == {
        "derived": 158,
        "IncompatibleLocals": 2155,
        "InvalidRatio": 220,
        "DegenerateSystem": 59,
    }
