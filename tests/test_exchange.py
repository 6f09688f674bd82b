import dataclasses
import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ptcache import verify
from ptcache.combinatorics import binom
from ptcache.exchange import (
    DeliveryCountMismatch,
    DemandOutOfRange,
    DuplicateDelivery,
    FileOracle,
    MissingPacket,
    PacketLayoutMismatch,
    PacketStore,
    UndecodableMessage,
    build_caches,
    decode,
    decode_all,
    generate_delivery,
    split_files,
    total_transmitted_units,
    transcript_lines,
)
from ptcache.scheme import SystemParams, derive, preset


def derived(name, K, t, N=None, unit=1):
    return derive(preset(name, SystemParams(K=K, t=t, N=N or K, unit=unit)))


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
    oracle = FileOracle()
    store = split_files(d, oracle)
    caches = build_caches(d, store)
    return d, oracle, store, caches


class TestSplit:
    def test_example1_counts(self, example1):
        d, oracle, store, _ = example1
        assert store.packets_per_file == 36 == 3 * (7 * 7 - 1) // 4
        assert store.bytes_per_file == 84

    def test_jcm_counts(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, FileOracle(), files=[1])
        assert store.packets_per_file == 2 * binom(5, 2) == 20
        assert len({size for *_, size in store.template}) == 1  # equal sizes

    def test_larger_instance_brute_force(self):
        d = derived("theorem1", 11, 4)
        store = split_files(d, FileOracle(), files=[1])
        assert store.packets_per_file == 1180
        # independent count: classify every 4-subset and sum aggregate entries
        agg = dict(zip(d.layout.subfile_types, d.fs.aggregate))
        total = 0
        for sub in itertools.combinations(range(1, 12), 4):
            v = (sum(1 for u in sub if u <= 6), sum(1 for u in sub if u > 6))
            total += agg[v]
        assert total == 1180

    def test_concatenation_reproduces_file(self, example1):
        d, oracle, store, _ = example1
        joined = b"".join(
            store.payload_at(3, pos).to_bytes(size, "big")
            for pos, (_, _, _, size) in enumerate(store.template)
        )
        assert joined == oracle.file_bytes(3, store.bytes_per_file)

    def test_layout_mismatch_sizes(self):
        d = derived("theorem1", 7, 2)
        sizing = SimpleNamespace(ell=d.sizing.ell, L=d.sizing.L + 1)
        with pytest.raises(PacketLayoutMismatch, match="bytes"):
            PacketStore(Overridden(d, sizing=sizing), FileOracle())

    def test_layout_mismatch_count(self):
        d = derived("theorem1", 7, 2)
        with pytest.raises(PacketLayoutMismatch, match="packets per file"):
            PacketStore(Overridden(d, packets_per_file=d.packets_per_file + 1), FileOracle())

    def test_unit_scales_bytes(self):
        d = derived("theorem1", 7, 2, unit=16)
        store = split_files(d, FileOracle(), files=[1])
        assert store.bytes_per_file == 84 * 16


class TestCaches:
    def test_example1_units(self, example1):
        d, _, store, caches = example1
        for c in caches:
            assert c.units_per_file == 24  # (t/K)*L = 2*84/7
            assert c.total_bytes == 24 * 7

    def test_jcm_symmetric(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, FileOracle())
        for c in build_caches(d, store):
            assert c.units_per_file * 5 == 2 * d.sizing.L

    def test_theorem1_t4_equal(self):
        d = derived("theorem1", 11, 4)
        store = split_files(d, FileOracle(), files=[1])
        totals = {c.units_per_file for c in build_caches(d, store)}
        assert len(totals) == 1


class TestDelivery:
    def test_example1_message_counts(self, example1):
        d, _, store, _ = example1
        msgs = generate_delivery(d, store, list(range(1, 8)), seed=0)
        per_round = Counter(m.round for m in msgs)
        assert per_round[1] == 60  # 12*1 + 18*2 + 4*3
        assert per_round[2] == 30  # 12 + 18
        assert total_transmitted_units(msgs, d) == 210  # (K-t)/t * L

    def test_dof_t_per_message(self, example1):
        d, _, store, _ = example1
        msgs = generate_delivery(d, store, list(range(1, 8)), seed=5)
        assert all(len(m.constituents) == 2 for m in msgs)

    def test_jcm_all_transmit(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, FileOracle())
        msgs = generate_delivery(d, store, [1, 2, 3, 4, 5], seed=0)
        per_group = Counter(m.group for m in msgs)
        assert set(per_group.values()) == {3}  # every 3-subset emits 3 messages
        assert len(per_group) == binom(5, 3)

    def test_demand_out_of_range(self, example1):
        d, _, store, _ = example1
        with pytest.raises(DemandOutOfRange):
            generate_delivery(d, store, [1, 2, 3, 4, 5, 6, 8], seed=0)
        with pytest.raises(DemandOutOfRange):
            generate_delivery(d, store, [1, 2, 3], seed=0)

    def test_repeat_count_mismatch(self, example1):
        d, _, store, _ = example1
        repeats = [list(row) for row in d.repeats]
        k = next(k for k, r in enumerate(repeats[0]) if r > 0)
        repeats[0][k] += 1
        skewed = Overridden(d, repeats=tuple(tuple(row) for row in repeats))
        with pytest.raises(DeliveryCountMismatch):
            generate_delivery(skewed, store, list(range(1, 8)), seed=0)

    def test_deterministic_for_seed(self, example1):
        d, _, store, _ = example1
        a = generate_delivery(d, store, list(range(1, 8)), seed=9)
        b = generate_delivery(d, store, list(range(1, 8)), seed=9)
        assert a == b


def _type_of(support, split_at=4):
    return (sum(1 for u in support if u <= split_at), sum(1 for u in support if u > split_at))


class TestDecode:
    def test_all_users_byte_exact(self, example1):
        d, oracle, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        for user in range(1, 8):
            got = decode(user, caches[user - 1], msgs, demands)
            assert got == oracle.file_bytes(user, store.bytes_per_file)

    def test_user1_per_type_counts(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        decoded = []
        for m in msgs:
            if m.transmitter == 1 or 1 not in m.group:
                continue
            decoded.extend(pid for pid in m.constituents if 1 not in pid[1])
        by_kind = Counter((_type_of(pid[1]), pid[2]) for pid in decoded)
        assert by_kind[((1, 1), 1)] == 9   # q^2 packets, first coupled group
        assert by_kind[((1, 1), 2)] == 9   # q^2 packets, second coupled group
        assert by_kind[((2, 0), 1)] == 6   # q(q-1) packets

    def test_jcm_decode_count(self):
        d = derived("jcm", 5, 2)
        store = split_files(d, FileOracle())
        demands = [1, 2, 3, 4, 5]
        msgs = generate_delivery(d, store, demands, seed=0)
        caches = build_caches(d, store)
        mine = [
            pid
            for m in msgs
            if m.transmitter != 1 and 1 in m.group
            for pid in m.constituents
            if 1 not in pid[1]
        ]
        assert len(mine) == 2 * binom(4, 2)  # t * C(K-1, t)
        assert decode(1, caches[0], msgs, demands) == store.oracle.file_bytes(1, store.bytes_per_file)

    def test_repeated_demands(self, example1):
        d, oracle, store, caches = example1
        demands = [1, 1, 2, 2, 3, 3, 3]
        msgs = generate_delivery(d, store, demands, seed=2)
        recon = decode_all(caches, msgs, demands)
        for user in range(1, 8):
            assert recon[user] == oracle.file_bytes(demands[user - 1], store.bytes_per_file)

    def test_subset_of_caches(self, example1):
        d, oracle, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        assert decode_all([caches[4]], msgs, demands) == {
            5: oracle.file_bytes(5, store.bytes_per_file)
        }

    def test_seed_changes_assignment_not_counts(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        runs = []
        for seed in (0, 1):
            msgs = generate_delivery(d, store, demands, seed=seed)
            per_kind = Counter(
                (pid[1], pid[2]) for m in msgs for pid in m.constituents
            )
            runs.append((msgs, per_kind))
        assert runs[0][1] == runs[1][1]          # same coverage
        assert runs[0][0] != runs[1][0]          # different index assignments

    def test_missing_packet_when_truncated(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        with pytest.raises(MissingPacket):
            decode(1, caches[0], msgs[:-20], demands)

    def test_duplicate_delivery_detected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        dup = msgs + [msgs[0]]
        target = next(pid for pid in msgs[0].constituents)
        victim = next(u for u in msgs[0].group if u not in target[1])
        with pytest.raises(DuplicateDelivery):
            decode(victim, caches[victim - 1], dup, demands)

    def test_undecodable_message(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        # graft a foreign constituent so two packets are unknown to the victim
        m = msgs[0]
        target = next(pid for pid in m.constituents)
        victim = next(u for u in m.group if u not in target[1])
        foreign = (demands[victim - 1], tuple(x for x in range(1, 8) if x != victim)[:2], 1, 1)
        bad = m.__class__(
            round=m.round, group=m.group, transmitter=m.transmitter,
            repeat=m.repeat, payload=m.payload,
            constituents=m.constituents + (foreign,),
        )
        with pytest.raises(UndecodableMessage):
            decode(victim, caches[victim - 1], [bad], demands)

    def test_constituent_outside_demand(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        m = generate_delivery(d, store, demands, seed=0)[0]
        n, support, g, j = m.constituents[0]
        other = (n % 7 + 1, support, g, j)
        bad = dataclasses.replace(m, constituents=(other,) + m.constituents[1:])
        with pytest.raises(DuplicateDelivery, match="outside its demand"):
            decode_all(caches, [bad], demands)


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
    pa = next(pid for pid in msgs[a].constituents if 5 not in pid[1])
    pb = next(pid for pid in msgs[b].constituents if 5 not in pid[1])
    out = list(msgs)
    for i, old, new in ((a, pa, pb), (b, pb, pa)):
        constituents = tuple(new if pid == old else pid for pid in msgs[i].constituents)
        payload = 0
        for pid in constituents:
            payload ^= store.payload(pid)
        out[i] = dataclasses.replace(
            msgs[i],
            constituents=constituents,
            payload=payload.to_bytes(len(msgs[i].payload), "big"),
        )
    return out


class TestHonestDecodeAll:
    """decode_all checks each receiver could decode from its own cache."""

    @pytest.fixture
    def tampered(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        return d, store, caches, demands, swap_user5_constituents(store, msgs)

    def test_swapped_constituents_rejected(self, tampered):
        _, _, caches, demands, msgs = tampered
        with pytest.raises(UndecodableMessage):
            decode(6, caches[5], msgs, demands)
        with pytest.raises(UndecodableMessage):
            decode_all(caches, msgs, demands)

    def test_verify_reports_swapped_constituents(self, tampered, monkeypatch):
        d, store, _, _, _ = tampered
        real = verify.generate_delivery

        def tampering(*args, **kwargs):
            return swap_user5_constituents(store, real(*args, **kwargs))

        monkeypatch.setattr(verify, "generate_delivery", tampering)
        report = verify.verify_end_to_end(d, "distinct", seed=0)
        assert not report.passed
        assert report.failure.startswith("UndecodableMessage")

    def test_transmitter_as_owner_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        m = msgs[0]
        x = m.transmitter
        own = (demands[x - 1], tuple(u for u in m.group if u != x), m.round, 1)
        bad = dataclasses.replace(m, constituents=m.constituents[:-1] + (own,))
        with pytest.raises(UndecodableMessage, match="transmitter"):
            decode_all(caches, [bad], demands)

    def test_owner_lacking_two_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        m = generate_delivery(d, store, demands, seed=0)[0]
        bad = dataclasses.replace(m, constituents=m.constituents + m.constituents[:1])
        with pytest.raises(UndecodableMessage, match="two constituents"):
            decode_all(caches, [bad], demands)


class TestDecodeAccounting:
    @pytest.mark.parametrize("name,K,t", [("theorem1", 11, 4), ("odd_t3", 9, 3)])
    def test_per_type_counts_match_cache_complement(self, name, K, t):
        """Each user decodes alpha^(g)(k) * (F(k) - F_j(k)) packets per kind."""
        d = derived(name, K, t)
        store = split_files(d, FileOracle(), files=range(1, K + 1))
        demands = list(range(1, K + 1))
        msgs = generate_delivery(d, store, demands, seed=7)
        split_at = d.grouping.sizes[0]
        got = Counter()
        for m in msgs:
            for pid in m.constituents:
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
        oracle = FileOracle()
        store = split_files(d, oracle)
        caches = build_caches(d, store)
        demands = list(range(1, 10))
        msgs = generate_delivery(d, store, demands, seed=4)
        assert all(len(m.constituents) == 3 for m in msgs)
        assert Fraction(total_transmitted_units(msgs, d), d.sizing.L) == Fraction(2)
        recon = decode_all(caches, msgs, demands)
        for user in range(1, 10):
            assert recon[user] == oracle.file_bytes(user, store.bytes_per_file)


class TestTranscript:
    def test_lines_parse_and_are_stable(self, example1):
        d, _, store, _ = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        lines = list(transcript_lines(msgs))
        assert len(lines) == len(msgs)
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "group", "transmitter", "repeat", "constituents", "payload_sha256"}
        assert lines == list(transcript_lines(generate_delivery(d, store, demands, seed=0)))

    @pytest.mark.parametrize("name,K,t,demands", [
        ("theorem1", 7, 2, [1, 1, 2, 2, 3, 3, 3]),
        ("jcm", 5, 2, [5, 4, 3, 2, 1]),
        ("odd_t3", 9, 3, list(range(1, 10))),
    ])
    def test_lines_equal_compact_json(self, name, K, t, demands):
        d = derived(name, K, t)
        store = split_files(d, FileOracle(), files=set(demands))
        msgs = generate_delivery(d, store, demands, seed=3)
        reference = [
            json.dumps(
                {
                    "round": m.round,
                    "group": list(m.group),
                    "transmitter": m.transmitter,
                    "repeat": m.repeat,
                    "constituents": [
                        {"file": n, "support": list(s), "coupled_group": g, "index": j}
                        for n, s, g, j in m.constituents
                    ],
                    "payload_sha256": hashlib.sha256(m.payload).hexdigest(),
                },
                separators=(",", ":"),
            )
            for m in msgs
        ]
        assert list(transcript_lines(msgs)) == reference
