"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Every tolerance is stated inline; all equality checks are
exact (integers or rationals) unless a percentage is named.
"""

import itertools
import math
import time
from fractions import Fraction

from ptcache.analysis import asymptotic_ratio, f_jcm, f_pt
from ptcache.baseline import compare
from ptcache.exchange import split_files
from ptcache.scheme import (
    FsVectors,
    SystemParams,
    count_vectors,
    derive,
    integer_packet_sizes,
    preset,
    solve_packet_ratio,
)
from ptcache.verify import (
    ratio_expectation,
    verify_claims,
    verify_end_to_end,
    verify_lemma3,
    verify_odd_t_obstruction,
    verify_remark3,
)


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    d = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
    ok = d.fs.intermediate == ((0, 1, 2), (0, 1, 0))
    ok &= d.fs.aggregate == (0, 2, 2)
    ok &= d.sizing.gamma[1] == 5 == 7 - 2
    ok &= d.packets_per_file == 36 == 3 * (7**2 - 1) // 4
    ok &= f_jcm(7, 2) == 42
    ok &= Fraction(36, 42) == Fraction(6, 7)
    units = None
    for seed in (0, 1, 2):
        rep = verify_end_to_end(d, "distinct", seed=seed)
        ok &= rep.passed and all(rep.decode_ok.values()) and len(rep.decode_ok) == 7
        ok &= rep.rate == Fraction(5, 2)
        units = rep.rate * d.sizing.L
    ok &= units == Fraction(5, 2) * 84
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"alpha=(0,1,2)/(0,1,0)->(0,2,2), gamma=5, F=36/42, "
                  f"decode 7 users x 3 seeds, units=(5/2)L, {elapsed:.2f}s < 1s")


def test_criterion_02_formula_vs_construction():
    start = time.perf_counter()
    ok = True
    checked = 0
    for t in (2, 4):
        r = t // 2
        # the closed-form aggregate, written here so the brute force is independent
        alpha = dict(zip(((k, t - k) for k in range(t + 1)),
                         tuple(2 * k for k in range(r)) + (t,) * (r + 1)))
        for q in range(t + 1, t + 7):
            K = 2 * q + 1
            d = derive(preset("theorem1", SystemParams(K=K, t=t, N=K)))
            store = split_files(d, [1] * K)
            brute = sum(
                alpha[(sum(1 for u in sub if u <= q + 1), sum(1 for u in sub if u > q + 1))]
                for sub in itertools.combinations(range(1, K + 1), t)
            )
            ok &= len(store.template) == f_pt(q, t) == brute
            checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(2, ok, f"split == closed form == brute force on {checked} points, "
                  f"{elapsed:.2f}s < 10s")


def test_criterion_03_asymptotics():
    start = time.perf_counter()
    ok = True
    details = []
    for t in (2, 4, 6, 8):
        asym = asymptotic_ratio(t)
        ratios = [
            Fraction(f_pt(q, t), f_jcm(2 * q + 1, t)) for q in range(t + 1, t + 51)
        ]
        ok &= all(b < a for a, b in zip(ratios, ratios[1:]))  # exact strict decrease
        ok &= all(rho > asym for rho in ratios)               # from above
        rel = abs(ratios[-1] / asym - 1)
        ok &= rel <= Fraction(2, 100)                         # within 2% at q = t+50
        details.append(f"t={t}: rel={float(rel):.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(3, ok, f"monotone from above, 2% at q=t+50 ({'; '.join(details)}), "
                  f"{elapsed:.2f}s < 5s")


def test_criterion_04_hypergeometric_identity():
    ok = True
    checked = 0
    for t in (2, 4, 6):
        for q in range(t + 1, t + 16):
            ok &= Fraction(f_pt(q, t), f_jcm(2 * q + 1, t)) == ratio_expectation(t, q)
            checked += 1
    report(4, ok, f"ratio == hypergeometric expectation exactly on {checked} points "
                  f"(zero tolerance)")


def test_criterion_05_lemma2_and_claims():
    ok = True
    checked = 0
    for t in (2, 4, 6, 8):
        for q in range(t + 1, t + 21):
            results = verify_claims(t, q)
            ok &= all(r.passed for r in results.values())
            checked += 1
    report(5, ok, f"gamma>0, product signs, delta pattern, zero sum, single sign "
                  f"change, comparison-bound implication on {checked} points (zero tolerance)")


def test_criterion_06_grouping_minimality():
    ok = True
    argmins = []
    for K, t in [(13, 2), (15, 2), (15, 4), (17, 4)]:
        res = verify_lemma3(K, t)
        ok &= res.passed and res.witness["argmin"] == (K - 1) // 2 + 1
        argmins.append(f"({K},{t})->q1={res.witness['argmin']}")
    report(6, ok, f"strict argmin at q1=q+1: {', '.join(argmins)}")


def test_criterion_07_homogeneous_uniqueness():
    ok = True
    for q in range(3, 13):
        res = verify_remark3(q)
        ok &= res.passed and res.witness["mc_satisfying"] == [[2, 2, 2]]
    report(7, ok, "only (2,2,2) satisfies the memory constraint for q in [3:12]")


def test_criterion_08_odd_t3_instance():
    d = derive(preset("odd_t3", SystemParams(K=9, t=3, N=9)))
    ok = d.packets_per_file == 210
    ok &= Fraction(210, f_jcm(9, 3)) == Fraction(5, 6)
    rep = verify_end_to_end(d, "distinct", seed=1)
    ok &= rep.passed and rep.rate == Fraction(2)
    # The 7/4 size ratio belongs to the staircase/hill vector pair; the
    # deliverable design realizing the (0,3,3,0) aggregate balances memory
    # with ratio 1/4.  Both are checked.
    counts = count_vectors(3, (5, 4))
    pair = FsVectors(intermediate=((0, 1, 2, 3), (0, 2, 1, 0)))
    gammas = solve_packet_ratio(pair, counts)
    ok &= gammas[1] == Fraction(7, 4) == Fraction(2 * (2 * 4 - 1), 4 + 4)
    ok &= integer_packet_sizes(gammas, pair, counts).ell == (4, 7)
    ok &= d.sizing.gamma[1] == Fraction(1, 4)
    report(8, ok, "F=210, ratio=5/6, rate=2, decode pass; gamma 7/4 for the "
                  "staircase/hill pair, 1/4 for the deliverable (0,3,3,0) design")


def test_criterion_09_baseline():
    ok = True
    for K in range(2, 10):
        for t in range(1, K):
            d = derive(preset("jcm", SystemParams(K=K, t=t, N=K)))
            ok &= d.packets_per_file == t * math.comb(K, t)
            rep = verify_end_to_end(d, "distinct", seed=0)
            ok &= rep.passed and rep.rate == Fraction(K - t, t)
    compared = []
    for name, K, t in [
        ("theorem1", 7, 2), ("theorem1", 9, 2), ("theorem1", 11, 2),
        ("theorem1", 13, 2), ("theorem1", 11, 4), ("odd_t3", 9, 3),
    ]:
        pt = derive(preset(name, SystemParams(K=K, t=t, N=K)))
        rec = compare(pt, derive(preset("jcm", SystemParams(K=K, t=t, N=K))))
        ok &= rec.pt_rate == rec.jcm_rate and rec.pt_packets < rec.jcm_packets
        compared.append(f"({K},{t}): {rec.pt_packets}<{rec.jcm_packets}")
    report(9, ok, f"baseline decodes at rate (K-t)/t for all K<=9; comparisons "
                  f"{'; '.join(compared)}")


def test_criterion_10_odd_t_obstruction():
    ok = True
    for r in range(2, 7):
        res = verify_odd_t_obstruction(r)
        ok &= res.passed and res.witness["merged"] == r * (r + 1) > 2 * r + 1
    boundary = verify_odd_t_obstruction(1)
    ok &= boundary.passed and not boundary.witness["obstructed"]
    report(10, ok, "lcm(r,r+1) > 2r+1 for r in [2:6]; no obstruction at r=1")
