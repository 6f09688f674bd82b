"""Run the full byte-level exchange: split, cache, deliver, decode.

Files are deterministic keyed byte streams, so every reconstruction can be
checked byte for byte without touching disk.  The packet store is built from
the demand vector: of each demanded file it keeps only the packets that a
demander lacks, since no message carries a packet every demander caches.
Delivery and decoding read the demand vector from the store, so a run has
one.  Each user's cache budget, t/K of the library, was already checked when
the derivation's delivery schedule was built for the store.  The demo prints
a few coded messages, then audits the whole run: per-message usefulness,
exact rate, and decode completeness for every user.
"""

import io
from collections import Counter
from fractions import Fraction

from ptcache import (
    SystemParams,
    build_caches,
    derive,
    file_bytes,
    generate_delivery,
    preset,
    split_files,
    total_transmitted_units,
    verify_end_to_end,
)
from ptcache.exchange import decode_all, record_transcript

d = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
demands = [1, 2, 3, 4, 5, 6, 7]
store = split_files(d, demands)  # keeps only the packets the demanders lack
cached = build_caches(store)  # by user, its cached bytes of the library
messages = generate_delivery(store, seed=0)

print("=" * 64)
print("Delivery for 7 users, everyone demanding a distinct file")
print("=" * 64)
print(f"packets per file: {d.packets_per_file}, file size: {store.bytes_per_file} bytes")
print(f"cached per user:  {cached[1]} bytes "
      f"(= t/K of the library, exactly)")
kept = sum(e[3] for e, v in zip(store.template, store.values[1]) if v is not None)
print(f"store keeps of file 1: {kept} of {store.bytes_per_file} bytes "
      f"(what user 1 lacks: (K-t)/K of the file)")
per_round = Counter(m.round for m in messages)
print(f"messages: {len(messages)} total, per round {dict(per_round)}")
units = total_transmitted_units(messages, d)
print(f"transmitted: {units} units; rate = {Fraction(units, d.sizing.L)} "
      f"(optimal (K-t)/t = {d.params.rate})")
print()

print("First three messages (payloads are XORs of the named packets):")
transcript = io.StringIO()
for _ in record_transcript(messages[:3], transcript, store):
    pass
for line in transcript.getvalue().splitlines():
    print(" ", line[:120], "...")
print()

print("Every message is useful to exactly t receivers:")
print(f"  constituent counts: {sorted(set(len(m.constituents) for m in messages))}")
print()

reconstructed = decode_all(store, messages)
for user in (1, 5):
    want = file_bytes(demands[user - 1], store.bytes_per_file)
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
