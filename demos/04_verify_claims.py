"""Machine-check the analytic properties behind the construction.

Everything here is exact rational arithmetic: the cache-difference sign
pattern and zero sum, the positivity of the packet-size ratio, the strict
monotonicity of the subpacketization ratio and its identity with a
hypergeometric expectation, the grouping-minimality scan, the uniqueness of
the homogeneous solution, and the pivot obstruction for odd aggregate cache
sizes.
"""

from ptcache.verify import (
    verify_claims,
    verify_lemma1,
    verify_lemma3,
    verify_odd_t_obstruction,
    verify_remark3,
)

print("=" * 72)
print("Cache-difference structure and ratio positivity on a (t, q) grid")
print("=" * 72)
for t in (2, 4, 6, 8):
    outcomes = []
    for q in range(t + 1, t + 21):
        results = verify_claims(t, q)
        outcomes.append(all(r.passed for r in results.values()))
    print(f"t={t}: {sum(outcomes)}/{len(outcomes)} points pass "
          f"(q from {t + 1} to {t + 20})")
sample = verify_claims(4, 5)
print(f"sample witness at t=4, q=5: delta = "
      f"{sample['claim1_sign_pattern'].witness['delta']}, "
      f"gamma = {sample['lemma2_ratio_positive'].witness['gamma']}")
print()

print("=" * 72)
print("Ratio is strictly decreasing in q and equals a hypergeometric mean")
print("=" * 72)
for t in (2, 4, 6):
    res = verify_lemma1(t, range(t + 1, t + 11))
    print(f"t={t}: passed={res.passed}, first ratios "
          f"{res.witness['ratios'][:3]}")
print()

print("=" * 72)
print("The (q+1, q) split minimizes packets among two-group splits")
print("=" * 72)
for K, t in [(13, 2), (15, 4)]:
    res = verify_lemma3(K, t)
    print(f"K={K}, t={t}: table {res.witness['table']}, "
          f"argmin q1={res.witness['argmin']}, passed={res.passed}")
print()

print("=" * 72)
print("Uniform packet sizes admit only the trivial splitting vector")
print("=" * 72)
res = verify_remark3(3)
print(f"q=3: residuals per candidate vector: {res.witness['residuals']}")
print(f"     only {res.witness['mc_satisfying']} balances memory -> "
      f"passed={res.passed}")
print()

print("=" * 72)
print("Odd aggregate cache sizes hit a pivot obstruction from t = 5 on")
print("=" * 72)
for r in range(1, 7):
    res = verify_odd_t_obstruction(r)
    w = res.witness
    state = "obstructed" if w["obstructed"] else "feasible"
    print(f"t={w['t']}: pivot factors {w['pivot_factors']} merge to "
          f"{w['merged']} -> {state} (check passed={res.passed})")
