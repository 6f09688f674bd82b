import bisect
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import re
import struct
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ptcache import baseline, exchange, verify
from ptcache.cli import main
from ptcache.exchange import (
    CodedMessage,
    DeliveryCountMismatch,
    DemandOutOfRange,
    DuplicateDelivery,
    MemoryMismatch,
    MissingPacket,
    PacketLayoutMismatch,
    PacketStore,
    PayloadSizeMismatch,
    SeedOutOfRange,
    UndecodableMessage,
    UndemandedPacket,
    UserOutOfRange,
    build_caches,
    decode,
    decode_all,
    decode_residuals,
    file_bytes,
    generate_delivery,
    record_transcript,
    split_files,
    stream_delivery,
    total_transmitted_units,
    write_transcript,
)
from ptcache.scheme import SchemeSpec, SystemParams, TransmitterSelection, UserGrouping, derive, preset


def derived(name, K, t, N=None, unit=1):
    return derive(preset(name, SystemParams(K=K, t=t, N=N or K, unit=unit)))


def packet_id(store, constituent):
    """``(file, support, coupled_group, index)`` of a ``(file, position)`` constituent."""
    n, pos = constituent
    return (n,) + store.template[pos][:3]


def packet_ids(store, m):
    return [packet_id(store, c) for c in m.constituents]


def position(store, support, g, j):
    """Flat position of packet (support, g, j) found by scanning the template, or None."""
    return next((pos for pos, e in enumerate(store.template) if e[:3] == (support, g, j)), None)


class Overridden:
    """A derivation with some attributes replaced, the rest delegated."""

    def __init__(self, derivation, **overrides):
        self._derivation = derivation
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._derivation, name)


@pytest.fixture(scope="module")
def example1():
    d = derived("theorem1", 7, 2)
    store = split_files(d, list(range(1, 8)))
    return d, store


class TestSplit:
    def test_example1_counts(self, example1):
        d, store = example1
        assert len(store.template) == 36 == 3 * (7 * 7 - 1) // 4
        assert store.bytes_per_file == 84

    def test_jcm_counts(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, [1] * 5)
        assert len(store.template) == 2 * math.comb(5, 2) == 20
        assert len({size for *_, size in store.template}) == 1  # equal sizes

    def test_larger_instance_brute_force(self):
        d = derived("theorem1", 11, 4)
        store = split_files(d, [1] * 11)
        assert len(store.template) == 1180
        # independent count: classify every 4-subset and sum aggregate entries
        agg = dict(zip(d.layout.subfile_types, d.fs.aggregate))
        total = 0
        for sub in itertools.combinations(range(1, 12), 4):
            v = (sum(1 for u in sub if u <= 6), sum(1 for u in sub if u > 6))
            total += agg[v]
        assert total == 1180

    def test_concatenation_reproduces_file(self, example1):
        """With every user demanding file 3, the store holds all of it."""
        d, _ = example1
        store = split_files(d, [3] * 7)
        values = store.values[3]
        joined = b"".join(
            values[pos].to_bytes(size, "big")
            for pos, (_, _, _, size) in enumerate(store.template)
        )
        assert joined == file_bytes(3, store.bytes_per_file)

    def test_layout_mismatch_sizes(self):
        d = derived("theorem1", 7, 2)
        sizing = SimpleNamespace(ell=d.sizing.ell, L=d.sizing.L + 1)
        with pytest.raises(PacketLayoutMismatch, match="bytes"):
            PacketStore(Overridden(d, sizing=sizing), [1] * 7)

    def test_layout_mismatch_count(self):
        d = derived("theorem1", 7, 2)
        with pytest.raises(PacketLayoutMismatch, match="packets per file"):
            PacketStore(
                Overridden(d, packets_per_file=d.packets_per_file + 1), [1] * 7
            )

    def test_unit_scales_bytes(self):
        d = derived("theorem1", 7, 2, unit=16)
        store = split_files(d, [1] * 7)
        assert store.bytes_per_file == 84 * 16

    @pytest.mark.parametrize("n", [0, 10])
    def test_file_outside_range(self, n):
        d = derived("theorem1", 7, 2, N=9)
        with pytest.raises(DemandOutOfRange, match=f"demand {n} outside 1..9"):
            split_files(d, [1, n, 1, 1, 1, 1, 1])

    def test_file_past_the_8_byte_key(self):
        """N may exceed 2**64, but ``file_bytes`` keys a file by 8 bytes: file 2**64 is a
        named error, which the audit reports, not an ``OverflowError``."""
        d = derived("theorem1", 7, 2, N=2**64 + 1)
        with pytest.raises(DemandOutOfRange, match=r"^demand 18446744073709551616 does not fit"):
            split_files(d, [1, 2, 3, 4, 5, 6, 2**64])
        report = verify.verify_end_to_end(d, [1, 2, 3, 4, 5, 6, 2**64 + 1])
        assert report.failure == (
            "DemandOutOfRange: demand 18446744073709551617 does not fit the file oracle's 8-byte index"
        )
        assert split_files(d, [2**64 - 1] * 7).files == (2**64 - 1,)

    def test_files_split_once(self):
        d = derived("theorem1", 7, 2, N=9)
        store = split_files(d, [3, 1, 3, 1, 1, 3, 3])
        assert store.files == (1, 3)


STORE_POINTS = [("theorem1", 7, 2), ("theorem1", 11, 4), ("odd_t3", 9, 3),
                ("even_K", 6, 2), ("even_K", 10, 4), ("jcm", 5, 2), ("jcm", 6, 3)]


def held(store, n):
    """Per position, whether the store holds file n's packet there."""
    return [v is not None for v in store.values[n]]


def lacked_by_some(store, users):
    """Per position, whether some user of ``users`` lacks the packet there."""
    return [any(u not in support for u in users) for support, *_ in store.template]


class TestDemandKeyedStore:
    """A store holds a demanded file's packets that some demander of it lacks, and no others."""

    @pytest.mark.parametrize("name,K,t", STORE_POINTS)
    def test_distinct_demands_hold_the_memory_complement(self, name, K, t):
        """Each file holds L*unit*(K-t)/K bytes: the packets its one demander lacks."""
        d = derived(name, K, t, unit=3)
        store = split_files(d, list(range(1, K + 1)))
        for n in range(1, K + 1):
            mask = held(store, n)
            assert mask == lacked_by_some(store, [n])
            held_bytes = sum(e[3] for e, kept in zip(store.template, mask) if kept)
            assert held_bytes * K == d.sizing.L * 3 * (K - t)

    @pytest.mark.parametrize("name,K,t", STORE_POINTS)
    def test_uniform_demands_hold_every_packet(self, name, K, t):
        d = derived(name, K, t)
        store = split_files(d, [2] * K)
        assert store.files == (2,)
        assert all(held(store, 2))

    @pytest.mark.parametrize("demands", [
        [1, 1, 2, 2, 3, 3, 3], [4, 4, 4, 4, 4, 4, 1], [7, 6, 6, 7, 5, 5, 7], [2, 9, 2, 9, 2, 9, 1],
    ])
    def test_repeated_demands_hold_the_union_of_what_demanders_lack(self, demands):
        d = derived("theorem1", 7, 2, N=9)
        store = split_files(d, demands)
        assert store.files == tuple(sorted(set(demands)))
        for n in set(demands):
            demanders = [u for u, m in enumerate(demands, 1) if m == n]
            assert held(store, n) == lacked_by_some(store, demanders)
            data = file_bytes(n, store.bytes_per_file)
            for pos, v in enumerate(store.values[n]):
                if v is not None:
                    offset, size = store.offsets[pos], store.template[pos][3]
                    assert v == int.from_bytes(data[offset:offset + size], "big")


class TestSchedule:
    """A derivation's delivery schedule is built once, from the derivation itself, and
    lives as long as it does."""

    def test_second_audit_builds_no_table(self, exchange_calls):
        d = derived("theorem1", 7, 2)
        assert verify.verify_end_to_end(d, "distinct", seed=1).passed
        calls = exchange_calls("subsets_by_type")
        assert verify.verify_end_to_end(d, [1, 1, 2, 2, 3, 3, 4], seed=2).passed
        assert calls["subsets_by_type"] == []

    def test_second_comparison_builds_no_table(self, exchange_calls):
        pt, jcm = derived("theorem1", 7, 2), derived("jcm", 7, 2)
        baseline.compare(pt, jcm, seed=1)
        calls = exchange_calls("subsets_by_type")
        baseline.compare(pt, jcm, seed=2)
        assert calls["subsets_by_type"] == []

    def test_schedule_dies_with_its_derivation(self):
        d = derived("theorem1", 7, 2)
        assert verify.verify_end_to_end(d, "distinct").passed
        schedule = weakref.ref(exchange.schedule_of(d))
        del d
        gc.collect()
        assert schedule() is None


def support_mask(support):
    return sum(1 << u for u in support)


def table_cases():
    """Every preset, ``unit`` > 1, and theorem1 K=7 t=2 at grouping (5, 2), whose group
    type (0, 3) has no instances: under the preset's plans (as ``--grouping 5,2``), and
    under a round-2 plan that gives that type a repeat."""
    p = SystemParams(K=7, t=2, N=7)
    spec = preset("theorem1", p)
    wide = UserGrouping((5, 2))
    sends_empty_type = TransmitterSelection.from_lists([{1}, {1}, {1}, {0}])
    return {
        "theorem1-7-2": derived("theorem1", 7, 2),
        "theorem1-11-4-unit3": derived("theorem1", 11, 4, unit=3),
        "odd_t3-9-3": derived("odd_t3", 9, 3),
        "even_K-10-4-unit2": derived("even_K", 10, 4, unit=2),
        "jcm-6-3-unit5": derived("jcm", 6, 3, unit=5),
        "theorem1-7-2-grouping-5,2": derive(SchemeSpec(p, wide, spec.plans)),
        "theorem1-7-2-grouping-5,2-round2-sends-0,3": derive(
            SchemeSpec(p, wide, (spec.plans[0], sends_empty_type))
        ),
    }


TABLE_CASES = table_cases()


class TestScheduleTables:
    """The schedule's tables against an independent recount of its ``template``."""

    @pytest.fixture(params=list(TABLE_CASES))
    def case(self, request):
        d = TABLE_CASES[request.param]
        return d, exchange.schedule_of(d)

    def test_cached_units_are_the_sizes_a_user_holds(self, case):
        d, s = case
        unit = d.params.unit
        assert s.cached_units == {
            u: sum(e[3] for e in s.template if u in e[0]) // unit for u in range(1, d.params.K + 1)
        }

    def test_offsets_carry_each_size_and_the_end(self, case):
        d, s = case
        assert len(s.offsets) == len(s.template) + 1
        assert s.offsets[0] == 0 and s.offsets[-1] == s.bytes_per_file == d.sizing.L * d.params.unit
        for i, (_, g, _, size) in enumerate(s.template):
            assert s.offsets[i + 1] - s.offsets[i] == size == s.size_of[g]

    def test_round_tables_share_one_key(self, case):
        d, s = case
        rounds = list(range(1, len(d.spec.plans) + 1))
        assert list(s.size_of) == list(s.first) == list(s.lacking) == rounds
        for g in rounds:
            assert s.lacking[g] == {
                i: ~support_mask(e[0]) for i, e in enumerate(s.template) if e[1] == g
            }
            assert s.first[g] == {
                support_mask(e[0]): i for i, e in enumerate(s.template) if e[1:3] == (g, 1)
            }

    def test_support_runs_tile_the_template(self, case):
        _, s = case
        runs, start = [], 0
        for support, entries in itertools.groupby(s.template, key=lambda e: e[0]):
            stop = start + len(list(entries))
            runs.append((support_mask(support), start, stop))
            start = stop
        assert start == len(s.template)
        assert s.support_runs == tuple(runs)

    def test_plans_name_no_group_type(self, case):
        """A plan is ``(round, groups, masks, receivers, sends)``, one per round and group
        type with instances that the round sends, in message order."""
        d, s = case
        sent = [
            (g, d.layout.group_types[k])
            for g, row in enumerate(d.repeats, 1) for k, repeats in enumerate(row) if repeats
        ]
        comps = {u: c for c, members in enumerate(d.grouping.groups) for u in members}
        planned = []
        for g, groups, masks, _, _ in s.plans:
            assert groups and masks == tuple(map(support_mask, groups))
            counts = Counter(comps[u] for u in groups[0])
            planned.append((g, tuple(counts[c] for c in range(d.grouping.m))))
        assert planned == [(g, s_k) for g, s_k in sent if all(
            s_k[c] <= len(members) for c, members in enumerate(d.grouping.groups)
        )]

    def test_group_types_enumerated_once(self, exchange_calls):
        """One ``subsets_by_type`` call per subfile type and per group type some round sends."""
        p = SystemParams(K=11, t=4, N=11)
        d = derive(preset("theorem1", p))
        calls = exchange_calls("subsets_by_type")
        exchange.DeliverySchedule(d)
        used = {k for row in d.repeats for k, repeats in enumerate(row) if repeats}
        assert len(calls["subsets_by_type"]) == len(d.layout.subfile_types) + len(used)


class TestCaches:
    def test_example1_units(self, example1):
        _, store = example1
        # (t/K)*L = 2*84/7 = 24 units of each of the N = 7 files
        assert build_caches(store) == {u: 24 * 7 for u in range(1, 8)}

    def test_jcm_symmetric(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, [1, 2, 3, 4, 5])
        for cached in build_caches(store).values():
            assert cached * 5 == 2 * d.sizing.L * 5

    def test_theorem1_t4_equal(self):
        d = derived("theorem1", 11, 4)
        store = split_files(d, [1] * 11)
        assert len(set(build_caches(store).values())) == 1

    MISMATCH = ("per-file cached units {1: 21, 2: 21, 3: 21, 4: 21, 5: 20, 6: 20, 7: 20} "
                "differ from target 144/7")

    @staticmethod
    def unbalanced(d):
        """Packet sizes (1, 4) with L = 72 pass both layout checks, but users 1-4
        cache 21 units of a file and users 5-7 cache 20, against t*L/K = 144/7."""
        return Overridden(d, sizing=SimpleNamespace(ell=(1, 4), L=72))

    def test_memory_mismatch(self, example1):
        """The schedule, built for the store, recounts each user's units and raises."""
        with pytest.raises(MemoryMismatch, match=f"^{re.escape(self.MISMATCH)}$"):
            split_files(self.unbalanced(example1[0]), [1] * 7)

    def test_memory_mismatch_report_states_the_target(self, example1, monkeypatch):
        """The audit sets the target, t*L/K units of each of N files, before it splits."""
        monkeypatch.setattr(verify, "derive", lambda spec: self.unbalanced(example1[0]))
        report = verify.verify_end_to_end(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        assert report.failure == f"MemoryMismatch: {self.MISMATCH}"
        assert report.memory_target == "144 bytes"
        assert not report.memory_ok and report.memory_bytes == {}


class TestDelivery:
    def test_example1_message_counts(self, example1):
        d, store = example1
        msgs = generate_delivery(store, seed=0)
        per_round = Counter(m.round for m in msgs)
        assert per_round[1] == 60  # 12*1 + 18*2 + 4*3
        assert per_round[2] == 30  # 12 + 18
        assert total_transmitted_units(msgs, d) == 210  # (K-t)/t * L

    def test_dof_t_per_message(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=5)
        assert all(len(m.constituents) == 2 for m in msgs)

    def test_jcm_all_transmit(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, [1, 2, 3, 4, 5])
        msgs = generate_delivery(store, seed=0)
        per_group = Counter(m.group for m in msgs)
        assert set(per_group.values()) == {3}  # every 3-subset emits 3 messages
        assert len(per_group) == math.comb(5, 3)

    def test_demand_out_of_range(self, example1):
        """A delivery's demands are its store's, so a bad vector never gets a store."""
        d = example1[0]
        with pytest.raises(DemandOutOfRange):
            split_files(d, [1, 2, 3, 4, 5, 6, 8])
        with pytest.raises(DemandOutOfRange):
            split_files(d, [1, 2, 3])

    def test_repeat_count_mismatch(self, example1):
        """The slot plans are the schedule's, built with the store, before any message."""
        d = example1[0]
        with pytest.raises(DeliveryCountMismatch):
            split_files(skewed_repeats(d), list(range(1, 8)))

    def test_deterministic_for_seed(self, example1):
        _, store = example1
        assert generate_delivery(store, seed=9) == generate_delivery(store, seed=9)

    @pytest.mark.parametrize("seed,message", [
        (-(2**63) - 1, "seed -9223372036854775809 does not fit 8 signed bytes"),
        (2**63, "seed 9223372036854775808 does not fit 8 signed bytes"),
        (2.0, "seed 2.0 is not an integer"),
        (1.5, "seed 1.5 is not an integer"),
        ("3", "seed '3' is not an integer"),
    ])
    def test_seed_out_of_range(self, example1, seed, message):
        """Raised by the call itself, before any message is built."""
        with pytest.raises(SeedOutOfRange) as info:
            stream_delivery(example1[1], seed)
        assert str(info.value) == message


def skewed_repeats(d):
    """``d`` with one round-1 repeat count raised by one, so no bijection exists."""
    repeats = [list(row) for row in d.repeats]
    k = next(k for k, r in enumerate(repeats[0]) if r > 0)
    repeats[0][k] += 1
    return dataclasses.replace(d, repeats=tuple(tuple(row) for row in repeats))


def _type_of(support, split_at=4):
    return (sum(1 for u in support if u <= split_at), sum(1 for u in support if u > split_at))


class TestDecode:
    def test_all_users_byte_exact(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        for user in range(1, 8):
            got = decode(user, store, msgs)
            assert got == file_bytes(user, store.bytes_per_file)

    @pytest.mark.parametrize("user", [0, 8, -1])
    def test_user_out_of_range(self, example1, user):
        """Named before any message is read."""
        def unread():
            raise AssertionError("a message was read")
            yield

        with pytest.raises(UserOutOfRange) as info:
            decode(user, example1[1], unread())
        assert str(info.value) == f"user {user} outside 1..7"

    def test_user1_per_type_counts(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        decoded = []
        for m in msgs:
            if m.transmitter == 1 or 1 not in m.group:
                continue
            decoded.extend(pid for pid in packet_ids(store, m) if 1 not in pid[1])
        by_kind = Counter((_type_of(pid[1]), pid[2]) for pid in decoded)
        assert by_kind[((1, 1), 1)] == 9   # q^2 packets, first coupled group
        assert by_kind[((1, 1), 2)] == 9   # q^2 packets, second coupled group
        assert by_kind[((2, 0), 1)] == 6   # q(q-1) packets

    def test_jcm_decode_count(self):
        d = derived("jcm", 5, 2)
        demands = [1, 2, 3, 4, 5]
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=0)
        mine = [
            pid
            for m in msgs
            if m.transmitter != 1 and 1 in m.group
            for pid in packet_ids(store, m)
            if 1 not in pid[1]
        ]
        assert len(mine) == 2 * math.comb(4, 2)  # t * C(K-1, t)
        assert decode(1, store, msgs) == file_bytes(1, store.bytes_per_file)

    def test_repeated_demands(self, example1):
        d, _ = example1
        demands = [1, 1, 2, 2, 3, 3, 3]
        store = split_files(d, demands)
        recon = decode_all(store, generate_delivery(store, seed=2))
        for user in range(1, 8):
            assert recon[user] == file_bytes(demands[user - 1], store.bytes_per_file)

    def test_decode_all_reads_each_demanded_file_once(self, monkeypatch):
        d = derived("theorem1", 7, 2)
        demands = [1, 2, 1, 2, 3, 1, 2]
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=3)
        reads = Counter()

        def counted(n, length):
            reads[n] += 1
            return file_bytes(n, length)

        monkeypatch.setattr(exchange, "file_bytes", counted)
        recon = decode_all(store, msgs)
        assert reads == {1: 1, 2: 1, 3: 1}
        assert list(recon) == list(range(1, 8))
        assert recon == {u: file_bytes(demands[u - 1], store.bytes_per_file) for u in range(1, 8)}

    @pytest.mark.parametrize("demands", [
        [1, 2, 3, 4, 5, 6, 0],
        [1, 2, 3],
        [1] * 6,
        [1] * 8,
        [1, 2, 3, 4, 5, 6, 7.0],
        [1, 2, "3", 4, 5, 6, 7],
    ], ids=["zero", "short", "six", "eight", "float", "str"])
    def test_demands_checked_before_any_message(self, monkeypatch, demands):
        """At N=9, a demand for 0, a vector of the wrong length or a non-integer
        entry is named, not a KeyError, an IndexError or a TypeError.

        ``split_files`` names it before any file is read, so no store, and
        so no delivery or decode, has demands that are not one file in 1..N
        per user.
        """
        d = derived("theorem1", 7, 2, N=9)

        def unread(n, length):
            raise AssertionError("a file was read")

        monkeypatch.setattr(exchange, "file_bytes", unread)
        with pytest.raises(DemandOutOfRange):
            split_files(d, demands)

    @pytest.mark.parametrize("entry", [7.0, "3"])
    def test_non_integer_demand_reported(self, entry):
        d = derived("theorem1", 7, 2)
        report = verify.verify_end_to_end(d, [1, 2, 3, 4, 5, 6, entry])
        assert report.failure == f"DemandOutOfRange: demand {entry!r} is not an integer"
        assert report.memory_target == "168 bytes"  # t*L/K units of N files, from the derivation alone

    def test_seed_changes_assignment_not_counts(self, example1):
        _, store = example1
        runs = []
        for seed in (0, 1):
            msgs = generate_delivery(store, seed=seed)
            per_kind = Counter(
                (pid[1], pid[2]) for m in msgs for pid in packet_ids(store, m)
            )
            runs.append((msgs, per_kind))
        assert runs[0][1] == runs[1][1]          # same coverage
        assert runs[0][0] != runs[1][0]          # different index assignments

    def test_missing_packet_when_truncated(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        with pytest.raises(MissingPacket):
            decode(1, store, msgs[:-20])

    def test_duplicate_delivery_detected(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        dup = msgs + [msgs[0]]
        target = packet_ids(store, msgs[0])[0]
        victim = next(u for u in msgs[0].group if u not in target[1])
        with pytest.raises(DuplicateDelivery):
            decode(victim, store, dup)

    def test_undecodable_message(self, example1):
        _, store = example1
        demands = store.demands
        msgs = generate_delivery(store, seed=0)
        # graft a foreign constituent so two packets are unknown to the victim
        m = msgs[0]
        target = packet_ids(store, m)[0]
        victim = next(u for u in m.group if u not in target[1])
        support = tuple(x for x in range(1, 8) if x != victim)[:2]
        foreign = (demands[victim - 1], position(store, support, 1, 1))
        bad = m.__class__(
            round=m.round, group=m.group, transmitter=m.transmitter,
            repeat=m.repeat, payload=m.payload,
            constituents=m.constituents + (foreign,),
        )
        with pytest.raises(UndecodableMessage):
            decode(victim, store, [bad])

    def test_constituent_outside_demand(self, example1):
        _, store = example1
        m = generate_delivery(store, seed=0)[0]
        n, pos = m.constituents[0]
        other = (n % 7 + 1, pos)
        bad = m._replace(constituents=(other,) + m.constituents[1:])
        with pytest.raises(UndemandedPacket, match="outside its demand"):
            decode_all(store, [bad])


def packet_value(store, constituent):
    """A packet's payload as an integer, read from the bytes of its file."""
    n, pos = constituent
    offset, size = store.offsets[pos], store.template[pos][3]
    data = file_bytes(n, store.bytes_per_file)
    return int.from_bytes(data[offset : offset + size], "big")


def swap_user5_constituents(store, msgs):
    """Swap what transmitter 1 carries for user 5 to groups (1,5,6) and (1,5,7).

    Payloads are recomputed, so every message is still a valid XOR of its
    constituents, but user 6 does not cache the packet it now receives
    alongside its own.
    """
    at = {}
    for i, m in enumerate(msgs):
        if m.round == 1 and m.transmitter == 1 and m.group in ((1, 5, 6), (1, 5, 7)):
            assert m.group not in at
            at[m.group] = i
    a, b = at[(1, 5, 6)], at[(1, 5, 7)]
    pa = next(c for c in msgs[a].constituents if 5 not in packet_id(store, c)[1])
    pb = next(c for c in msgs[b].constituents if 5 not in packet_id(store, c)[1])
    out = list(msgs)
    for i, old, new in ((a, pa, pb), (b, pb, pa)):
        constituents = tuple(new if c == old else c for c in msgs[i].constituents)
        payload = 0
        for c in constituents:
            payload ^= packet_value(store, c)
        out[i] = msgs[i]._replace(
            constituents=constituents,
            payload=payload.to_bytes(len(msgs[i].payload), "big"),
        )
    return out


class TestHonestDecodeAll:
    """decode_all checks each receiver could decode from its own cache."""

    @pytest.fixture
    def tampered(self, example1):
        d, store = example1
        return d, store, swap_user5_constituents(store, generate_delivery(store, seed=0))

    def test_swapped_constituents_rejected(self, tampered):
        _, store, msgs = tampered
        with pytest.raises(UndecodableMessage):
            decode(6, store, msgs)
        with pytest.raises(UndecodableMessage):
            decode_all(store, msgs)

    def test_verify_reports_swapped_constituents(self, tampered, monkeypatch):
        d, store, _ = tampered
        real = verify.stream_delivery

        def tampering(*args, **kwargs):
            return swap_user5_constituents(store, list(real(*args, **kwargs)))

        monkeypatch.setattr(verify, "stream_delivery", tampering)
        report = verify.verify_end_to_end(d, "distinct", seed=0)
        assert not report.passed
        assert report.failure.startswith("UndecodableMessage")

    def test_transmitter_as_owner_rejected(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        # The first message whose round has packets cached by all but its transmitter.
        for m in msgs:
            x = m.transmitter
            pos = position(store, tuple(u for u in m.group if u != x), m.round, 1)
            if pos is not None:
                break
        own = (store.demands[x - 1], pos)
        bad = m._replace(constituents=m.constituents[:-1] + (own,))
        with pytest.raises(UndecodableMessage, match="transmitter"):
            decode_all(store, [bad])

    def test_owner_lacking_two_rejected(self, example1):
        _, store = example1
        m = generate_delivery(store, seed=0)[0]
        bad = m._replace(constituents=m.constituents + m.constituents[:1])
        with pytest.raises(UndecodableMessage, match="two constituents"):
            decode_all(store, [bad])


FILES = {  # case: (the file the first constituent names, the file its transcript line shows)
    "file_99": (99, 99), "file_str": ("1", "1"), "file_none": (None, None),
    "file_float": (1.5, 1.5),
    "file_bytes": (b"1", "b'1'"),  # JSON has no bytes: the JSON string of its repr
    "file_true": (True, 1), "file_float_one": (1.0, 1),  # equal to file 1: written as 1
}


def malformed(store, m, case):
    """Message ``m`` made malformed in one way, named by ``case``.

    "unknown_index"/"negative_index": its first constituent gets the
    position one past the layout (or -1); "float_index"/"list_index": its
    first constituent's position as a float (or in a list); "other_round": a position of the
    other coupled group.  "owner_99"/"owner_0": the group becomes the first
    constituent's support plus member 99 (or 0), which is then the only
    member lacking that constituent, so its owner.  "unknown_round": the
    round becomes 3 of 2.  "transmitter_outside": the transmitter becomes
    99, not a member.  "negative_member": the group gains member -1.
    "file_*": its first constituent names the file ``FILES`` gives (99, "1",
    None, 1.5, b"1", True or 1.0), which the receiver does not demand.
    """
    n, first = m.constituents[0]
    if case in FILES:
        return m._replace(constituents=((FILES[case][0], first),) + m.constituents[1:])
    if case in ("unknown_index", "negative_index", "float_index", "list_index", "other_round"):
        pos = {
            "unknown_index": len(store.template),
            "negative_index": -1,
            "float_index": float(first),
            "list_index": [first],
            "other_round": next(p for p, e in enumerate(store.template) if e[1] != m.round),
        }[case]
        return m._replace(constituents=((n, pos),) + m.constituents[1:])
    if case == "unknown_round":
        return m._replace(round=3)
    if case == "transmitter_outside":
        return m._replace(transmitter=99)
    if case == "negative_member":
        return m._replace(group=(-1,) + m.group)
    extra = {"owner_99": 99, "owner_0": 0}[case]
    _, pos = m.constituents[0]
    support = store.template[pos][0]
    return m._replace(
        group=tuple(sorted(support + (extra,))), transmitter=support[0], constituents=((1, pos),)
    )


MALFORMED = [
    ("unknown_index", "not a packet of the layout"),
    ("owner_99", "owner 99 .* not a user 1..7"),
    ("owner_0", "owner 0 .* not a user 1..7"),
    ("negative_index", "not a packet of the layout"),
    ("float_index", "not a packet of the layout"),
    ("list_index", "not a packet of the layout"),
    ("other_round", "not a packet of round 1"),
    ("unknown_round", "round 3 is not a round 1..2"),
    ("transmitter_outside", "transmitter 99 is not a member"),
    ("negative_member", "member -1 .* is not a user"),
]


class TestMalformedConstituents:
    """Constituents outside the layout, the round or the user range raise UndecodableMessage."""

    @pytest.mark.parametrize("case,reason", MALFORMED)
    def test_decode_all(self, example1, case, reason):
        _, store = example1
        m = generate_delivery(store, seed=0)[0]
        with pytest.raises(UndecodableMessage, match=reason):
            decode_all(store, [malformed(store, m, case)])

    @pytest.mark.parametrize("case,reason", MALFORMED)
    def test_verify_reports(self, example1, monkeypatch, case, reason):
        d = example1[0]
        real = verify.stream_delivery

        def tampering(store, *args, **kwargs):
            msgs = list(real(store, *args, **kwargs))
            return [malformed(store, msgs[0], case)] + msgs[1:]

        monkeypatch.setattr(verify, "stream_delivery", tampering)
        report = verify.verify_end_to_end(d, "distinct", seed=0)
        assert not report.passed
        assert report.failure.startswith("UndecodableMessage")
        assert re.search(reason, report.failure)

    @pytest.mark.parametrize("case", [case for case, _ in MALFORMED] + list(FILES))
    def test_transcript_keeps_the_failure(self, example1, monkeypatch, tmp_path, case):
        """With a transcript, the run reports the failure of the run without one.

        The second message is malformed.  A position outside the layout stops
        the transcript after the first message's line; any other fault is
        the decoder's to find, and every message still gets its line.  A
        file no user demands is written as the message names it, as the
        string of its repr where JSON has none, and as file 1's number when
        it equals 1 (the decoder compares files by ``==`` too).
        """
        real = verify.stream_delivery

        def tampering(store, *args, **kwargs):
            msgs = list(real(store, *args, **kwargs))
            return msgs[:1] + [malformed(store, msgs[1], case)] + msgs[2:]

        monkeypatch.setattr(verify, "stream_delivery", tampering)
        plain = verify.verify_end_to_end(example1[0], "distinct", seed=0)
        path = tmp_path / "run.jsonl"
        logged = verify.verify_end_to_end(example1[0], "distinct", seed=0, transcript=str(path))
        assert plain.failure.startswith(("UndecodableMessage", "UndemandedPacket"))
        assert logged.failure == plain.failure
        lines = path.read_text(encoding="utf-8").count("\n")
        assert lines == logged.message_count
        outside = ("unknown_index", "negative_index", "float_index", "list_index")
        assert lines == (1 if case in outside else plain.message_count)
        if case in FILES:
            assert plain.failure.startswith("UndemandedPacket")
            written = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
            file, shown = written["constituents"][0]["file"], FILES[case][1]
            assert (type(file), file) == (type(shown), shown)


def flip_first_payload_bit(msgs):
    m = msgs[0]
    return [m._replace(payload=bytes([m.payload[0] ^ 1]) + m.payload[1:])] + msgs[1:]


def with_first_payload(msgs, payload):
    return [msgs[0]._replace(payload=payload)] + msgs[1:]


TAMPERED = [
    # tamper, failure prefix (None: the run completes), users that fail to decode
    (lambda msgs: msgs[:-1], "MissingPacket", None),
    (lambda msgs: msgs + msgs[:1], "DuplicateDelivery", None),
    (flip_first_payload_bit, None, {5, 6}),
    (lambda msgs: with_first_payload(msgs, msgs[0].payload + b"\0"), "PayloadSizeMismatch", None),
    (lambda msgs: with_first_payload(msgs, msgs[0].payload[:-1]), "PayloadSizeMismatch", None),
]


class TestTampering:
    """A tampered delivery fails ``verify_end_to_end`` with a named reason."""

    @pytest.mark.parametrize("tamper,failure,undecoded", TAMPERED,
                             ids=["drop_last", "duplicate_first", "flip_payload_bit",
                                  "longer_payload", "shorter_payload"])
    def test_verify_reports(self, example1, monkeypatch, tamper, failure, undecoded):
        real = verify.stream_delivery
        monkeypatch.setattr(verify, "stream_delivery",
                            lambda *args, **kwargs: tamper(list(real(*args, **kwargs))))
        report = verify.verify_end_to_end(example1[0], "distinct", seed=0)
        assert not report.passed
        if failure is None:
            assert report.failure is None
            assert {u for u, ok in report.decode_ok.items() if not ok} == undecoded
            assert set(report.decode_ok) == set(range(1, 8))
        else:
            assert report.failure.startswith(failure)

    @pytest.mark.parametrize("tamper,report_sha,transcript_sha,lines", [
        (TAMPERED[0][0], "a74de8fe494d1cd51cc790b58b91091df16600e3b03965ee83062a2cbfad94ac",
         "50a345c1ba627448f8ebcd9f90b94368f7ac7540522a818c269dc16875a16025", 89),
        (TAMPERED[1][0], "7179e1fe5c8de507fe5cebb30b585b09597c8adfffceccbe89d4619f2573e407",
         "2d2541439890a5d3b66c18eb957bc2fc2934d3f8e962ef47a336fc274c099650", 91),
        (TAMPERED[2][0], "acd13a517e67992b99705f2f5357275f3882718f3887baf98d5ad3d53458802c",
         "6381327aea17f297f3115e17ab9aeb27607c608497799773794e5c2cdbe49e28", 90),
        (TAMPERED[3][0], "585cfcb561ed22638bc78e28af89664dd887dbe2a3506fed70205be9d0d1fde0",
         "df312c0805032218df2df11629d752d294936c33528ed5d99576e956feccbf40", 90),
    ], ids=["drop_last", "duplicate_first", "flip_payload_bit", "longer_payload"])
    def test_simulate_keeps_report_and_transcript(
        self, tmp_path, monkeypatch, tamper, report_sha, transcript_sha, lines
    ):
        """A run that fails in decoding still writes its whole report and transcript.

        The hashes were taken when ``simulate`` wrote the transcript from the
        full message list after the audit: the messages that decoding did
        not reach still count in ``message_count`` and ``rate`` and still
        get their transcript lines.  The transcript hashes were re-taken when
        packet indices moved to one word stream per (seed, round, group);
        the report hashes held.
        """
        real = verify.stream_delivery
        monkeypatch.setattr(verify, "stream_delivery",
                            lambda *args, **kwargs: tamper(list(real(*args, **kwargs))))
        transcript, report = tmp_path / "run.jsonl", tmp_path / "report.json"
        code = main(["simulate", "--preset", "theorem1", "--K", "7", "--t", "2", "--seed", "0",
                     "--transcript", str(transcript), "--output", str(report)])
        assert code == 1
        assert json.loads(report.read_text())["message_count"] == lines
        assert transcript.read_bytes().count(b"\n") == lines
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(transcript.read_bytes()).hexdigest() == transcript_sha


def two_faults(store, msgs, case):
    """``msgs`` with two faults at once, named by ``case`` (see ``PRECEDENCE``).

    The first message is round 1 of group (1, 5, 6) from transmitter 1, with
    constituents c0 = (5, 2) for user 5 and c1 = (6, 0) for user 6; c1
    misfiled names file 7, which user 6 does not demand.
    """
    m = msgs[0]
    c0, c1 = m.constituents
    misfiled = (c1[0] % 7 + 1, c1[1])
    longer = m.payload + b"\0"

    def first(**fields):
        return [m._replace(**fields)] + msgs[1:]

    return {
        "duplicate_before_misfiled": first(constituents=(c0, c0, misfiled)),
        "misfiled_before_duplicate": first(constituents=(c0, misfiled, c0)),
        "transmitter_outside_and_longer": first(transmitter=99, payload=longer),
        "unknown_round_and_longer": first(round=3, payload=longer),
        "longer_and_misfiled": first(payload=longer, constituents=(c0, misfiled)),
        "negative_member_and_transmitter_outside": first(group=(-1,) + m.group, transmitter=99),
        "outside_layout_misfiled": first(constituents=((7, len(store.template)), c1)),
        "transmitter_outside_and_misfiled": first(transmitter=99, constituents=(c0, misfiled)),
        # the first message again, with one payload bit flipped
        "resent_and_flipped": msgs + [m._replace(payload=bytes([m.payload[0] ^ 1]) + m.payload[1:])],
        # the first message misfiled, and the last one gone
        "dropped_and_misfiled": first(constituents=(c0, misfiled))[:-1],
    }[case]


PRECEDENCE = [
    # case, the error the decoder names, its message
    ("duplicate_before_misfiled", UndecodableMessage,
     r"a member of group \(1, 5, 6\) lacks two constituents of one message"),
    ("misfiled_before_duplicate", UndemandedPacket,
     r"user 6 decoded \(7, \(1, 5\), 1, 1\) outside its demand"),
    ("transmitter_outside_and_longer", UndecodableMessage,
     r"transmitter 99 is not a member of group \(1, 5, 6\)"),
    ("unknown_round_and_longer", UndecodableMessage, r"round 3 is not a round 1\.\.2"),
    ("longer_and_misfiled", PayloadSizeMismatch,
     r"round 1 payload of transmitter 1 in group \(1, 5, 6\) has 2 bytes, expected 1"),
    ("negative_member_and_transmitter_outside", UndecodableMessage,
     r"member -1 of group \(-1, 1, 5, 6\) is not a user"),
    ("outside_layout_misfiled", UndecodableMessage, r"\(7, 36\) is not a packet of the layout"),
    ("transmitter_outside_and_misfiled", UndecodableMessage,
     r"transmitter 99 is not a member of group \(1, 5, 6\)"),
    ("resent_and_flipped", DuplicateDelivery, r"user 5 decoded \(5, \(1, 6\), 1, 1\) twice"),
    ("dropped_and_misfiled", UndemandedPacket,
     r"user 6 decoded \(7, \(1, 5\), 1, 1\) outside its demand"),
]


class TestErrorPrecedence:
    """A message with two faults names the one the decoder checks first.

    The decoder checks, in this order: the group's members, the transmitter,
    the round and then the payload size, then each constituent in message
    order (outside the layout or round, then its owner, then its file, then
    an owner already seen); a packet decoded twice after the whole message,
    and a packet never decoded after the last one.  The pins were taken
    before the decoder kept only ``(slots, position)`` per constituent.
    """

    @pytest.mark.parametrize("case,error,reason", PRECEDENCE, ids=[c for c, _, _ in PRECEDENCE])
    def test_first_fault_named(self, example1, case, error, reason):
        _, store = example1
        msgs = two_faults(store, generate_delivery(store, seed=0), case)
        with pytest.raises(error, match=reason):
            decode_residuals(store, msgs)

    def test_streamed_messages_are_coded_messages(self, example1):
        _, store = example1
        m = next(stream_delivery(store, seed=0))
        assert type(m) is CodedMessage
        assert m == CodedMessage(*m)
        bad = m._replace(transmitter=99)
        assert type(bad) is CodedMessage
        assert (bad.transmitter, bad[:2] + bad[3:]) == (99, m[:2] + m[3:])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-(2**63), 2**63 - 1), data=st.data())
def test_nonzero_residual_iff_assembled_file_differs(example1, seed, data):
    """One flipped payload bit: users with a nonzero residual are those whose file differs.

    Both are exactly the owners of the flipped message's constituents: with
    distinct demands, user n owns the packets of file n.
    """
    _, store = example1
    msgs = generate_delivery(store, seed=seed)
    i = data.draw(st.integers(0, len(msgs) - 1), label="message")
    bit = data.draw(st.integers(0, 8 * len(msgs[i].payload) - 1), label="bit")
    flipped = int.from_bytes(msgs[i].payload, "big") ^ (1 << bit)
    msgs[i] = msgs[i]._replace(payload=flipped.to_bytes(len(msgs[i].payload), "big"))
    nonzero = {u for u, held in decode_residuals(store, msgs).items() if any(held)}
    differs = {
        u for u, got in decode_all(store, msgs).items()
        if got != file_bytes(store.demands[u - 1], store.bytes_per_file)
    }
    assert nonzero == differs == {n for n, _ in msgs[i].constituents}


@pytest.fixture(scope="module")
def k17t4():
    """theorem1 K=17 t=4 with distinct demands: 26 754 messages of 4 constituents."""
    store = split_files(derived("theorem1", 17, 4), list(range(1, 18)))
    return store, generate_delivery(store, seed=0)


class TestDecodeMemory:
    def test_peak_within_twice_the_files(self, k17t4):
        """decode_all's traced peak at theorem1 K=17 t=4 stays within 2x the bytes it returns.

        Holding one int per message (shared by its owners) keeps it near
        1.5x; one fresh int per decoded packet would reach about 2.3x.
        """
        store, msgs = k17t4
        tracemalloc.start()
        try:
            out = decode_all(store, msgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(map(len, out.values()))
        assert returned == 17 * store.bytes_per_file
        assert peak <= 2 * returned, (peak, returned)


class TestDecodeAccounting:
    @pytest.mark.parametrize("name,K,t", [("theorem1", 11, 4), ("odd_t3", 9, 3)])
    def test_per_type_counts_match_cache_complement(self, name, K, t):
        """Each user decodes alpha^(g)(k) * (F(k) - F_j(k)) packets per kind."""
        d = derived(name, K, t)
        demands = list(range(1, K + 1))
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=7)
        split_at = d.grouping.sizes[0]
        got = Counter()
        for m in msgs:
            for pid in packet_ids(store, m):
                owner = next(u for u in m.group if u not in pid[1])
                v = (
                    sum(1 for u in pid[1] if u <= split_at),
                    sum(1 for u in pid[1] if u > split_at),
                )
                got[(owner, v, pid[2])] += 1
        for user in range(1, K + 1):
            j = 0 if user <= split_at else 1
            for ti, v in enumerate(d.layout.subfile_types):
                for g in (1, 2):
                    expect = d.fs.intermediate[g - 1][ti] * (
                        d.counts.F[ti] - d.counts.per_set[j][ti]
                    )
                    assert got.get((user, v, g), 0) == expect


class TestOddT3EndToEnd:
    def test_repeat_sweeps_deliver_every_index(self):
        d = derived("odd_t3", 9, 3)
        demands = list(range(1, 10))
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=4)
        assert all(len(m.constituents) == 3 for m in msgs)
        assert Fraction(total_transmitted_units(msgs, d), d.sizing.L) == Fraction(2)
        recon = decode_all(store, msgs)
        for user in range(1, 10):
            assert recon[user] == file_bytes(user, store.bytes_per_file)


class TestTranscript:
    def test_lines_parse_and_are_stable(self, example1):
        _, store = example1
        msgs = generate_delivery(store, seed=0)
        lines = transcript_of(msgs, store)
        assert len(lines) == len(msgs)
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "group", "transmitter", "repeat", "constituents", "payload_sha256"}
        assert lines == transcript_of(generate_delivery(store, seed=0), store)

    @pytest.mark.parametrize("name,K,t,demands", [
        ("theorem1", 7, 2, [1, 1, 2, 2, 3, 3, 3]),
        ("jcm", 5, 2, [5, 4, 3, 2, 1]),
        ("odd_t3", 9, 3, list(range(1, 10))),
    ])
    def test_lines_equal_compact_json(self, name, K, t, demands):
        d = derived(name, K, t)
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=3)
        assert transcript_of(msgs, store) == [compact_json(store, m) for m in msgs]

    def test_every_constituent_count(self, example1):
        """Messages of 0, 1 and t + 1 constituents, one group tuple in both rounds.

        Real deliveries carry t constituents per message, so these are built
        by hand; one line template serves every count.
        """
        _, store = example1
        group = (1, 2, 5)
        r1 = [p for p, e in enumerate(store.template) if e[1] == 1]
        r2 = [p for p, e in enumerate(store.template) if e[1] == 2]
        msgs = [
            CodedMessage(1, group, 1, 1, b"\x01", ()),
            CodedMessage(1, group, 2, 1, b"\x02", ((3, r1[0]),)),
            CodedMessage(2, group, 5, 2, b"\x03", ((1, r2[0]), (7, r2[-1]), (4, r2[5]))),
            CodedMessage(1, (3, 4, 6), 6, 1, b"", ((2, r1[-1]), (5, r1[1]))),
            CodedMessage(2, group, 1, 1, b"\x04", ((6, r2[1]),)),
            CodedMessage(1, group, 2, 3, b"\x05", ()),
        ]
        assert transcript_of(msgs, store) == [compact_json(store, m) for m in msgs]

    def test_head_follows_round_and_group(self, example1):
        """The (round, group) head is rebuilt when either changes, not the group alone.

        Two consecutive messages share one group tuple but differ in round;
        the next group is equal to it but a distinct tuple; the last message
        has no constituents.
        """
        _, store = example1
        group = (1, 2, 5)
        twin = tuple(list(group))
        assert twin == group and twin is not group
        r1 = [p for p, e in enumerate(store.template) if e[1] == 1]
        r2 = [p for p, e in enumerate(store.template) if e[1] == 2]
        msgs = [
            CodedMessage(1, group, 1, 1, b"\x01", ((2, r1[0]), (5, r1[1]))),
            CodedMessage(2, group, 1, 1, b"\x02", ((2, r2[0]), (5, r2[1]))),
            CodedMessage(2, twin, 2, 1, b"\x03", ((1, r2[2]), (5, r2[3]))),
            CodedMessage(2, twin, 5, 1, b"\x04", ()),
        ]
        assert transcript_of(msgs, store) == [compact_json(store, m) for m in msgs]

    def test_write_peak_within_a_quarter_of_the_bytes(self, k17t4, tmp_path):
        """write_transcript holds a block of lines, not the transcript: 1.2 of 10.9 MB."""
        store, msgs = k17t4
        path = tmp_path / "run.jsonl"
        tracemalloc.start()
        try:
            write_transcript(msgs, str(path), store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert written == sum(len(line) + 1 for line in transcript_of(msgs, store))
        assert peak <= written / 4, (peak, written)


def transcript_of(msgs, store):
    """The transcript lines ``record_transcript`` writes for ``msgs``."""
    fh = io.StringIO()
    for _ in record_transcript(msgs, fh, store):
        pass
    return fh.getvalue().splitlines()


def compact_json(store, m):
    """Message ``m``'s transcript line, by ``json.dumps``."""
    return json.dumps(
        {
            "round": m.round,
            "group": list(m.group),
            "transmitter": m.transmitter,
            "repeat": m.repeat,
            "constituents": [
                {"file": n, "support": list(s), "coupled_group": g, "index": j}
                for n, s, g, j in packet_ids(store, m)
            ],
            "payload_sha256": hashlib.sha256(m.payload).hexdigest(),
        },
        separators=(",", ":"),
    )


def reference_group_orders(seed, g, members, alphas):
    """Each receiver's indices 1..alpha, shuffled by the group's word stream as first specified.

    Block b of the stream is the 64-byte blake2b of seed (q), round (H),
    the members (I each) and b (i), packed big-endian; each block is eight
    64-bit words.  The receivers take words in turn, alpha - 1 each, and
    step i = alpha-1 .. 1 swaps entries i and (word) mod (i + 1).
    """
    key = ">qH%dIi" % len(members)
    stream = b"".join(
        hashlib.blake2b(struct.pack(key, seed, g, *members, b)).digest()
        for b in range(-(-sum(n - 1 for n in alphas) // 8))
    )
    words = (int.from_bytes(stream[w:w + 8], "big") for w in range(0, len(stream), 8))
    orders = []
    for n in alphas:
        out = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = next(words) % (i + 1)
            out[i], out[j] = out[j], out[i]
        orders.append(out)
    return orders


def drained_orders(seed, g, members, alphas):
    """Each receiver's positions as ``stream_delivery`` carries them, for one group made by hand.

    Receiver r is member r, with ``alphas[r]`` packets at positions
    1..alpha; the schedule's one group sends one message per (receiver,
    entry), each carrying that entry alone.
    """
    group = tuple(members)
    mask = sum(1 << u for u in group)
    sends = [(r, 1, [(r, j)]) for r, alpha in enumerate(alphas) for j in range(alpha)]
    plan = (g, [group], [mask], list(enumerate(alphas)), sends)
    schedule = SimpleNamespace(
        plans=[plan], size_of={g: 1}, first={g: {mask ^ (1 << u): 1 for u in group}},
    )
    store = SimpleNamespace(
        schedule=schedule, demands=[1] * max(group), values={1: [0] * 64},
    )
    orders = [[] for _ in alphas]
    for (r, j, _), m in zip(sends, stream_delivery(store, seed), strict=True):
        ((_, pos),) = m.constituents
        orders[r].append(pos)
    return orders


def reference_constituents(d, store, demands, seed, m):
    """Message ``m``'s constituents rebuilt from the group's word stream, receiver by receiver.

    The group's receivers, its members with alpha > 0 packets in this
    round in member order, shuffle their indices with
    ``reference_group_orders``.  The transmitter carries receiver y's index
    ``order[slot * repeats + repeat - 1]``, where slot is its place among
    y's senders.  Returns the constituents and how many of them go to an
    alpha = 1 receiver, which draws no word.
    """
    g, group, x = m.round, m.group, m.transmitter
    bounds = list(itertools.accumulate(d.grouping.sizes))  # last user of each component
    comps = [bisect.bisect_left(bounds, u) for u in group]
    k = d.layout.group_types.index(tuple(comps.count(c) for c in range(d.grouping.m)))
    alpha_of = {c: d.fs.intermediate[g - 1][ti] for c, ti in d.layout.involved[k]}
    repeats = d.repeats[g - 1][k]
    daggers = d.spec.plans[g - 1].daggers[k]
    transmitters = [u for u, c in zip(group, comps) if c in daggers]
    receivers = [(y, alpha_of[c]) for y, c in zip(group, comps) if alpha_of[c]]
    orders = reference_group_orders(seed, g, group, [alpha for _, alpha in receivers])
    out, alpha_one = [], 0
    for (y, alpha), order in zip(receivers, orders):
        if y == x:
            continue
        alpha_one += alpha == 1
        senders = [u for u in transmitters if u != y]
        j = order[senders.index(x) * repeats + m.repeat - 1]
        support = tuple(u for u in group if u != y)
        out.append((demands[y - 1], position(store, support, g, j)))
    return tuple(out), alpha_one


class TestBijection:
    """The receivers' bijections, against an independent reading of the group word stream."""

    # (seed, round, members) shaped like delivery's: extreme seeds, rounds 1..3, five members.
    KEYS = list(itertools.islice(
        zip(
            itertools.cycle([0, -1, 7, 2**63 - 1, -(2**63)]),
            itertools.cycle([1, 2, 3]),
            itertools.combinations(range(1, 12), 5),
        ),
        15,
    ))

    def test_permutation_matches_reference(self):
        """n = 1..40 crosses the 8-words-per-block boundaries at n = 10, 18, 26 and 34."""
        for n in range(1, 41):
            for seed, g, members in self.KEYS:
                expected = reference_group_orders(seed, g, members, [n])
                assert drained_orders(seed, g, members, [n]) == expected
                assert sorted(expected[0]) == list(range(1, n + 1))

    @pytest.mark.parametrize("alphas", [
        (4, 4, 4),           # 9 words: the third receiver's last word opens block 1
        (1, 9),              # 8 words: one block exactly
        (2, 9),              # 9 words
        (5, 5, 5, 5, 5),     # 20 words: three blocks
        (3, 1, 4, 1, 5),     # receivers with alpha = 1 between others
        (1, 1, 1),           # no word: nothing hashed
    ])
    def test_receivers_share_one_stream(self, alphas):
        for seed, g, members in self.KEYS:
            assert drained_orders(seed, g, members, alphas) == \
                reference_group_orders(seed, g, members, alphas)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**63 - 1),
        g=st.integers(1, 3),
        members=st.lists(st.integers(1, 40), min_size=2, max_size=6, unique=True),
        data=st.data(),
    )
    def test_every_order_is_a_permutation(self, seed, g, members, data):
        alphas = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=len(members)))
        orders = drained_orders(seed, g, members, alphas)
        assert [sorted(order) for order in orders] == [list(range(1, n + 1)) for n in alphas]
        assert orders == reference_group_orders(seed, g, members, alphas)

    @pytest.mark.parametrize("name,K,t,seed,demands,alpha_one", [
        # alpha_one: constituents for alpha = 1 receivers, of all constituents
        ("theorem1", 7, 2, 0, "distinct", 120),    # of 180
        ("theorem1", 11, 4, 3, "distinct", 1540),  # of 8 260
        ("odd_t3", 9, 3, 1, "uniform", 420),       # of 1 260
        ("jcm", 5, 2, 2, "distinct", 0),           # of 60
    ])
    def test_delivery_skips_no_needed_key(self, name, K, t, seed, demands, alpha_one):
        """Messages equal the reference's, which counts the alpha = 1 receivers it served."""
        d = derived(name, K, t)
        demands = verify.demand_vector(demands, K)
        store = split_files(d, demands)
        msgs = generate_delivery(store, seed=seed)
        ones = 0
        for m in msgs:
            expected, count = reference_constituents(d, store, demands, seed, m)
            assert m.constituents == expected
            ones += count
        assert ones == alpha_one


class TestOneHashPerGroup:
    """One drained delivery computes one blake2b per 8 words its groups draw, and no more."""

    @pytest.mark.parametrize("name,K,t,digests", [
        ("theorem1", 17, 4, 11004),  # 12 138 groups; two digests per receiver made 73 164
        ("theorem1", 13, 4, 2352),
        ("jcm", 13, 4, 2574),
        ("theorem1", 7, 2, None),
        ("odd_t3", 9, 3, None),
        ("even_K", 12, 2, None),
        ("jcm", 7, 3, None),
    ])
    def test_digest_count(self, monkeypatch, name, K, t, digests):
        store = split_files(derived(name, K, t), list(range(1, K + 1)))
        calls = []

        def blake2b(data):
            calls.append(data)
            return hashlib.blake2b(data)

        monkeypatch.setattr(exchange, "hashlib", SimpleNamespace(blake2b=blake2b))
        msgs = list(stream_delivery(store, seed=1))
        # Per (round, group), receiver y's alpha is the number of constituents it owns.
        alphas = Counter()
        for m in msgs:
            for _, pos in m.constituents:
                (y,) = set(m.group).difference(store.template[pos][0])
                alphas[m.round, m.group, y] += 1
        words = Counter()
        for (g, group, _), alpha in alphas.items():
            words[g, group] += alpha - 1
        assert len(calls) == sum(-(-w // 8) for w in words.values())
        assert len(set(calls)) == len(calls)
        if digests is not None:
            assert len(calls) == digests
