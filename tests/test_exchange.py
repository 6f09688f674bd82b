import dataclasses
import gc
import hashlib
import itertools
import json
import re
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ptcache import exchange, verify
from ptcache.cli import main
from ptcache.combinatorics import binom
from ptcache.exchange import (
    CacheMismatch,
    CodedMessage,
    DeliveryCountMismatch,
    DemandOutOfRange,
    DuplicateDelivery,
    FileOracle,
    MissingPacket,
    PacketLayoutMismatch,
    PacketStore,
    PayloadSizeMismatch,
    UndecodableMessage,
    UndemandedPacket,
    _bijection,
    build_caches,
    decode,
    decode_all,
    generate_delivery,
    split_files,
    total_transmitted_units,
    transcript_lines,
    write_transcript,
)
from ptcache.scheme import SystemParams, derive, preset


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
        values = store.file_values(3)
        joined = b"".join(
            values[pos].to_bytes(size, "big")
            for pos, (_, _, _, size) in enumerate(store.template)
        )
        assert joined == oracle.file_bytes(3, store.bytes_per_file) == store.file_bytes(3)

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
        with pytest.raises(DeliveryCountMismatch):
            generate_delivery(skewed_repeats(d), store, list(range(1, 8)), seed=0)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
    @pytest.mark.parametrize("skew", [False, True], ids=["delivers", "count_mismatch"])
    def test_gc_state_kept(self, example1, monkeypatch, enabled, skew):
        """Delivery builds its messages with the collector paused, then restores its state.

        The skewed run raises ``DeliveryCountMismatch`` from the slot plan,
        inside the paused region.
        """
        d, _, store, _ = example1
        real = exchange._slot_plan
        seen = []

        def recording(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(exchange, "_slot_plan", recording)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if skew:
                with pytest.raises(DeliveryCountMismatch):
                    generate_delivery(skewed_repeats(d), store, list(range(1, 8)), seed=0)
            else:
                generate_delivery(d, store, list(range(1, 8)), seed=0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert seen and not any(seen)

    def test_deterministic_for_seed(self, example1):
        d, _, store, _ = example1
        a = generate_delivery(d, store, list(range(1, 8)), seed=9)
        b = generate_delivery(d, store, list(range(1, 8)), seed=9)
        assert a == b


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
            decoded.extend(pid for pid in packet_ids(store, m) if 1 not in pid[1])
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
            for pid in packet_ids(store, m)
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

    def test_duplicate_cache_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        with pytest.raises(CacheMismatch, match="two caches of user 1"):
            decode_all([caches[0], caches[0]], msgs, demands)

    def test_cache_of_another_store_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        other = build_caches(d, split_files(d, FileOracle(b"another key")))
        with pytest.raises(CacheMismatch, match="user 2 splits another store"):
            decode_all([caches[0], other[1]], msgs, demands)

    def test_seed_changes_assignment_not_counts(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        runs = []
        for seed in (0, 1):
            msgs = generate_delivery(d, store, demands, seed=seed)
            per_kind = Counter(
                (pid[1], pid[2]) for m in msgs for pid in packet_ids(store, m)
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
        target = packet_ids(store, msgs[0])[0]
        victim = next(u for u in msgs[0].group if u not in target[1])
        with pytest.raises(DuplicateDelivery):
            decode(victim, caches[victim - 1], dup, demands)

    def test_undecodable_message(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
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
            decode(victim, caches[victim - 1], [bad], demands)

    def test_constituent_outside_demand(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        m = generate_delivery(d, store, demands, seed=0)[0]
        n, pos = m.constituents[0]
        other = (n % 7 + 1, pos)
        bad = m._replace(constituents=(other,) + m.constituents[1:])
        with pytest.raises(UndemandedPacket, match="outside its demand"):
            decode_all(caches, [bad], demands)


def packet_value(store, constituent):
    """A packet's payload as an integer, read from the bytes the store split."""
    n, pos = constituent
    offset, size = store.offsets[pos], store.template[pos][3]
    return int.from_bytes(store.file_bytes(n)[offset : offset + size], "big")


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
        real = verify.stream_delivery

        def tampering(*args, **kwargs):
            return swap_user5_constituents(store, list(real(*args, **kwargs)))

        monkeypatch.setattr(verify, "stream_delivery", tampering)
        report = verify.verify_end_to_end(d, "distinct", seed=0)
        assert not report.passed
        assert report.failure.startswith("UndecodableMessage")

    def test_transmitter_as_owner_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        msgs = generate_delivery(d, store, demands, seed=0)
        # The first message whose round has packets cached by all but its transmitter.
        for m in msgs:
            x = m.transmitter
            pos = position(store, tuple(u for u in m.group if u != x), m.round, 1)
            if pos is not None:
                break
        own = (demands[x - 1], pos)
        bad = m._replace(constituents=m.constituents[:-1] + (own,))
        with pytest.raises(UndecodableMessage, match="transmitter"):
            decode_all(caches, [bad], demands)

    def test_owner_lacking_two_rejected(self, example1):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        m = generate_delivery(d, store, demands, seed=0)[0]
        bad = m._replace(constituents=m.constituents + m.constituents[:1])
        with pytest.raises(UndecodableMessage, match="two constituents"):
            decode_all(caches, [bad], demands)


def malformed(store, m, case):
    """Message ``m`` made malformed in one way, named by ``case``.

    "unknown_index"/"negative_index": its first constituent gets the
    position one past the layout (or -1); "other_round": a position of the
    other coupled group.  "owner_99"/"owner_0": the group becomes the first
    constituent's support plus member 99 (or 0), which is then the only
    member lacking that constituent, so its owner.  "unknown_round": the
    round becomes 3 of 2.  "transmitter_outside": the transmitter becomes
    99, not a member.  "negative_member": the group gains member -1.
    """
    n, _ = m.constituents[0]
    if case in ("unknown_index", "negative_index", "other_round"):
        pos = {
            "unknown_index": store.packets_per_file,
            "negative_index": -1,
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
    ("other_round", "not a packet of round 1"),
    ("unknown_round", "round 3 is not a round 1..2"),
    ("transmitter_outside", "transmitter 99 is not a member"),
    ("negative_member", "member -1 .* is not a user"),
]


class TestMalformedConstituents:
    """Constituents outside the layout, the round or the user range raise UndecodableMessage."""

    @pytest.mark.parametrize("case,reason", MALFORMED)
    def test_decode_all(self, example1, case, reason):
        d, _, store, caches = example1
        demands = list(range(1, 8))
        m = generate_delivery(d, store, demands, seed=0)[0]
        with pytest.raises(UndecodableMessage, match=reason):
            decode_all(caches, [malformed(store, m, case)], demands)

    @pytest.mark.parametrize("case,reason", MALFORMED)
    def test_verify_reports(self, example1, monkeypatch, case, reason):
        d = example1[0]
        real = verify.stream_delivery

        def tampering(derivation, store, *args, **kwargs):
            msgs = list(real(derivation, store, *args, **kwargs))
            return [malformed(store, msgs[0], case)] + msgs[1:]

        monkeypatch.setattr(verify, "stream_delivery", tampering)
        report = verify.verify_end_to_end(d, "distinct", seed=0)
        assert not report.passed
        assert report.failure.startswith("UndecodableMessage")
        assert re.search(reason, report.failure)


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
         "16d3d648af208fc1f0e87054c5723113a9e37845d54a4e851b32a31ffe828e7d", 89),
        (TAMPERED[1][0], "7179e1fe5c8de507fe5cebb30b585b09597c8adfffceccbe89d4619f2573e407",
         "759727295a019c1b7277b7d35ef2fba9a9b4a3087571264dde61d4db8fe5b6d4", 91),
        (TAMPERED[2][0], "acd13a517e67992b99705f2f5357275f3882718f3887baf98d5ad3d53458802c",
         "23179693cbf06abf18ff8ffc0c44db6673a32847eb9fcdb3aac645a6d5001ad6", 90),
        (TAMPERED[3][0], "585cfcb561ed22638bc78e28af89664dd887dbe2a3506fed70205be9d0d1fde0",
         "94e85558cf72ac346df58a3ed002471b25fcbbd8604302167b7552feee10115f", 90),
    ], ids=["drop_last", "duplicate_first", "flip_payload_bit", "longer_payload"])
    def test_simulate_keeps_report_and_transcript(
        self, tmp_path, monkeypatch, tamper, report_sha, transcript_sha, lines
    ):
        """A run that fails in decoding still writes its whole report and transcript.

        The hashes were taken when ``simulate`` wrote the transcript from the
        full message list after the audit: the messages that decoding did
        not reach still count in ``message_count`` and ``rate`` and still
        get their transcript lines.
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


@pytest.fixture(scope="module")
def k17t4():
    """theorem1 K=17 t=4 with distinct demands: 26 754 messages of 4 constituents."""
    d = derived("theorem1", 17, 4)
    demands = list(range(1, 18))
    store = split_files(d, files=demands)
    return d, store, demands, generate_delivery(d, store, demands, seed=0)


class TestDecodeMemory:
    def test_peak_within_twice_the_files(self, k17t4):
        """decode_all's traced peak at theorem1 K=17 t=4 stays within 2x the bytes it returns.

        Holding one int per message (shared by its owners) keeps it near
        1.5x; one fresh int per decoded packet would reach about 2.3x.
        """
        d, store, demands, msgs = k17t4
        caches = build_caches(d, store)
        tracemalloc.start()
        try:
            out = decode_all(caches, msgs, demands)
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
        store = split_files(d, FileOracle(), files=range(1, K + 1))
        demands = list(range(1, K + 1))
        msgs = generate_delivery(d, store, demands, seed=7)
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
        lines = list(transcript_lines(msgs, store))
        assert len(lines) == len(msgs)
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "group", "transmitter", "repeat", "constituents", "payload_sha256"}
        assert lines == list(transcript_lines(generate_delivery(d, store, demands, seed=0), store))

    @pytest.mark.parametrize("name,K,t,demands", [
        ("theorem1", 7, 2, [1, 1, 2, 2, 3, 3, 3]),
        ("jcm", 5, 2, [5, 4, 3, 2, 1]),
        ("odd_t3", 9, 3, list(range(1, 10))),
    ])
    def test_lines_equal_compact_json(self, name, K, t, demands):
        d = derived(name, K, t)
        store = split_files(d, FileOracle(), files=set(demands))
        msgs = generate_delivery(d, store, demands, seed=3)
        assert list(transcript_lines(msgs, store)) == [compact_json(store, m) for m in msgs]

    def test_every_constituent_count(self, example1):
        """Messages of 0, 1 and t + 1 constituents, one group tuple in both rounds.

        Real deliveries carry t constituents per message, so these are built
        by hand; each count gets its own line format.
        """
        d, _, store, _ = example1
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
        assert list(transcript_lines(msgs, store)) == [compact_json(store, m) for m in msgs]

    def test_write_peak_within_a_quarter_of_the_bytes(self, k17t4, tmp_path):
        """write_transcript holds a block of lines, not the transcript: 1.2 of 10.9 MB."""
        _, store, _, msgs = k17t4
        path = tmp_path / "run.jsonl"
        tracemalloc.start()
        try:
            write_transcript(msgs, str(path), store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert written == sum(len(line) + 1 for line in transcript_lines(msgs, store))
        assert peak <= written / 4, (peak, written)


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


def reference_shuffled_indices(n, key):
    """The seeded Fisher-Yates loop as first written, kept as the oracle."""
    out = list(range(1, n + 1))
    words = []
    for counter in range((n + 6) // 8):
        digest = hashlib.blake2b(counter.to_bytes(4, "big"), digest_size=64, key=key).digest()
        words.extend(struct.unpack(">8Q", digest))
    for i in range(n - 1, 0, -1):
        j = words[n - 1 - i] % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def reference_constituents(d, store, demands, seed, m):
    """Message ``m``'s constituents rebuilt receiver by receiver, hashing every key.

    Each receiver y of the group other than the transmitter, with alpha > 0
    packets in this round, gets its bijection keyed by blake2b-128 of seed
    (8 bytes, signed), round (2), the members (4 each) and y (4), all
    big-endian.  The transmitter carries index ``order[slot * repeats +
    repeat - 1]``, where slot is its place among y's senders.  Returns the
    constituents and how many of them go to an alpha = 1 receiver, whose key
    was hashed here although its permutation can only be [1].
    """
    g, group, x = m.round, m.group, m.transmitter
    comps = [d.grouping.group_of(u) for u in group]
    k = d.layout.group_types.index(tuple(comps.count(c) for c in range(d.grouping.m)))
    alpha_of = {c: d.fs.intermediate[g - 1][ti] for c, ti in d.layout.involved[k]}
    repeats = d.repeats[g - 1][k]
    daggers = d.spec.plans[g - 1].daggers[k]
    transmitters = [u for u, c in zip(group, comps) if c in daggers]
    prefix = seed.to_bytes(8, "big", signed=True) + g.to_bytes(2, "big")
    prefix += b"".join(u.to_bytes(4, "big") for u in group)
    out, alpha_one = [], 0
    for y, c in zip(group, comps):
        alpha = alpha_of[c]
        if alpha == 0 or y == x:
            continue
        key = hashlib.blake2b(prefix + y.to_bytes(4, "big"), digest_size=16).digest()
        order = reference_shuffled_indices(alpha, key)
        alpha_one += alpha == 1
        senders = [u for u in transmitters if u != y]
        j = order[senders.index(x) * repeats + m.repeat - 1]
        support = tuple(u for u in group if u != y)
        out.append((demands[y - 1], position(store, support, g, j)))
    return tuple(out), alpha_one


class TestBijection:
    """The receivers' bijections, against the loop and key derivation they replaced."""

    # Key inputs shaped like delivery's: seed, round, five members, receiver.
    KEY_INPUTS = [
        struct.pack(">qH6I", seed, g, *members, y)
        for seed, g, members, y in itertools.islice(
            zip(
                itertools.cycle([0, -1, 7, 2**63 - 1, -(2**63)]),
                itertools.cycle([1, 2, 3]),
                itertools.combinations(range(1, 12), 5),
                itertools.cycle(range(1, 12)),
            ),
            72,
        )
    ]

    def test_permutation_matches_reference(self):
        """n = 1..40 crosses the 8-words-per-digest boundaries at n = 10, 18, 26 and 34."""
        for n in range(1, 41):
            for first, key_input in enumerate(self.KEY_INPUTS, start=1):
                key = hashlib.blake2b(key_input, digest_size=16).digest()
                expected = [first - 1 + j for j in reference_shuffled_indices(n, key)]
                assert _bijection(key_input, n, first) == expected
                assert sorted(expected) == list(range(first, first + n))

    @pytest.mark.parametrize("name,K,t,seed,demands,alpha_one", [
        # alpha_one: constituents for alpha = 1 receivers, of all constituents
        ("theorem1", 7, 2, 0, "distinct", 120),    # of 180
        ("theorem1", 11, 4, 3, "distinct", 1540),  # of 8 260
        ("odd_t3", 9, 3, 1, "uniform", 420),       # of 1 260
        ("jcm", 5, 2, 2, "distinct", 0),           # of 60
    ])
    def test_delivery_skips_no_needed_key(self, name, K, t, seed, demands, alpha_one):
        """Messages equal the reference's, which also hashes alpha = 1 receivers' keys."""
        d = derived(name, K, t)
        demands = verify.demand_vector(demands, K, K)
        store = split_files(d, FileOracle(), files=set(demands))
        msgs = generate_delivery(d, store, demands, seed=seed)
        ones = 0
        for m in msgs:
            expected, count = reference_constituents(d, store, demands, seed, m)
            assert m.constituents == expected
            ones += count
        assert ones == alpha_one
