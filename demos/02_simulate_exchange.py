"""Run the full byte-level exchange: split, cache, deliver, decode.

Files are deterministic keyed byte streams, so every reconstruction can be
checked byte for byte without touching disk.  The demo prints a few coded
messages, then audits the whole run: cache budgets, per-message usefulness,
exact rate, and decode completeness for every user.
"""

from collections import Counter
from fractions import Fraction

from ptcache import (
    SystemParams,
    build_caches,
    derive,
    generate_delivery,
    preset,
    split_files,
    total_transmitted_units,
    verify_end_to_end,
)
from ptcache.exchange import decode_all, transcript_lines

d = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
store = split_files(d)
caches = build_caches(d, store)
demands = [1, 2, 3, 4, 5, 6, 7]
messages = generate_delivery(d, store, demands, seed=0)

print("=" * 64)
print("Delivery for 7 users, everyone demanding a distinct file")
print("=" * 64)
print(f"packets per file: {store.packets_per_file}, file size: {store.bytes_per_file} bytes")
print(f"cached per user:  {caches[0].total_bytes} bytes "
      f"(= t/K of the library, exactly)")
per_round = Counter(m.round for m in messages)
print(f"messages: {len(messages)} total, per round {dict(per_round)}")
units = total_transmitted_units(messages, d)
print(f"transmitted: {units} units; rate = {Fraction(units, d.sizing.L)} "
      f"(optimal (K-t)/t = {d.rate})")
print()

print("First three messages (payloads are XORs of the named packets):")
for line in list(transcript_lines(messages))[:3]:
    print(" ", line[:120], "...")
print()

print("Every message is useful to exactly t receivers:")
print(f"  constituent counts: {sorted(set(len(m.constituents) for m in messages))}")
print()

reconstructed = decode_all(caches, messages, demands)
for user in (1, 5):
    want = store.file_bytes(demands[user - 1])
    print(f"user {user} reconstructs file {demands[user-1]}: "
          f"{'byte-identical' if reconstructed[user] == want else 'MISMATCH'}")
print()

print("=" * 64)
print("One-call audit (also available as `ptcache simulate ...`)")
print("=" * 64)
for name, K, t, seed in [("theorem1", 7, 2, 0), ("odd_t3", 9, 3, 1), ("jcm", 5, 2, 0)]:
    report = verify_end_to_end(
        preset(name, SystemParams(K=K, t=t, N=K)), "distinct", seed=seed
    )
    print(f"{name:9s} K={K} t={t} seed={seed}: passed={report.passed} "
          f"rate={report.rate} messages={report.message_count}")
