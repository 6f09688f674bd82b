"""Build scheme blueprints and inspect their static algebra.

Walks the construction pipeline for a small odd-K instance: user grouping,
subfile and multicast-group types, per-coupled-group splitting vectors, the
exact packet-size ratio that balances every user's cache, and the resulting
integer packet sizes.
"""

from ptcache import SystemParams, derive, preset

print("=" * 64)
print("A 7-user scheme with aggregate cache size t = 2")
print("=" * 64)

d = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))

print(f"user groups:        {d.grouping.groups}")
print(f"subfile types:      {d.layout.subfile_types}")
print(f"group types:        {d.layout.group_types}")
print()
print("Each coupled group applies its own transmitter selection, giving")
print("one splitting vector per coupled group; their sum drives the")
print("subpacketization.")
for g, vec in enumerate(d.fs.intermediate, start=1):
    print(f"  splitting vector, coupled group {g}: {vec}")
print(f"  aggregate:                         {d.fs.aggregate}")
print()
print("Subfile counts and per-group cache counts per type:")
print(f"  F  = {d.counts.F}")
print(f"  F1 = {d.counts.per_set[0]}   (a user in the larger group)")
print(f"  F2 = {d.counts.per_set[1]}   (a user in the smaller group)")
print(f"  cache difference = {d.counts.deltas[0]}")
print()
print("The packet-size ratio that equalizes cached bytes across groups,")
print("and the smallest integer packet sizes realizing it:")
print(f"  gamma = {[str(g) for g in d.sizing.gamma]}")
print(f"  packet sizes (units) = {d.sizing.ell}, file length L = {d.sizing.L}")
print(f"  packets per file     = {d.packets_per_file}")
print(f"  delivery rate        = {d.params.rate}")
print()

print("=" * 64)
print("The same pipeline at other parameter points")
print("=" * 64)
for name, K, t in [("theorem1", 11, 4), ("odd_t3", 9, 3), ("even_K", 12, 2), ("jcm", 5, 2)]:
    d = derive(preset(name, SystemParams(K=K, t=t, N=K)))
    print(f"{name:9s} K={K:2d} t={t}:  aggregate={d.fs.aggregate}  "
          f"gamma={[str(g) for g in d.sizing.gamma]}  F={d.packets_per_file}  L={d.sizing.L}")

print()
print("Blueprints serialize to JSON (same document the CLI emits):")
print(derive(preset("theorem1", SystemParams(K=7, t=2, N=7))).to_json()[:400] + " ...")
