"""Reproduce the subpacketization-ratio curves as figure-ready data.

For each even t, the ratio of the heterogeneous construction's packet count
to the symmetric baseline's falls strictly with q and converges from above
to 1 - C(t, t/2) / 2^(t+1), which ``asymptotic_ratio`` gives exactly.  The
demo prints the head of each curve, the asymptote next to its Stirling
approximation 1 - 1/sqrt(2 pi t), and writes the full grid to ratios.csv.
"""

import math

from ptcache.analysis import asymptotic_ratio, records_to_csv, sweep

T_VALUES = [2, 4, 6, 8]
records = sweep(T_VALUES, q_max=None)  # q up to t+50 per t

print("=" * 72)
print("Ratio head (exact) and asymptote per t")
print("=" * 72)
for t in T_VALUES:
    curve = [r for r in records if r.t == t]
    exact = asymptotic_ratio(t)
    stirling = 1.0 - math.sqrt(1.0 / (2.0 * math.pi * t))
    head = ", ".join(f"q={r.q}: {r.ratio} ({float(r.ratio):.4f})" for r in curve[:4])
    print(f"t={t}:  {head}")
    print(f"       asymptote {exact} = {float(exact):.6f} "
          f"(Stirling approx {stirling:.6f})")
    tail = curve[-1]
    gap = float(tail.ratio - tail.asymptote)
    print(f"       at q={tail.q} (K={tail.K}): ratio={float(tail.ratio):.6f}, "
          f"gap to asymptote {gap:.6f}")
    print()

with open("ratios.csv", "w", encoding="utf-8") as fh:
    fh.write(records_to_csv(records))
print(f"wrote {len(records)} rows to ratios.csv "
      "(columns: K,t,q,r,F_PT,F_JCM,ratio_exact,ratio_float,"
      "asymptote_exact,asymptote_float,gamma)")
print("plot ratio_float and asymptote_float against K, one pair of curves per t")
