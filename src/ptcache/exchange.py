"""Byte-exact execution of a PT scheme: split, place, deliver, decode.

Files come from a deterministic keyed byte oracle, get split into
heterogeneous packets in a canonical order, are cached at the users whose
support sets cover them, and are exchanged through two (or G) rounds of XOR
multicast messages.  Decoding is checked by its residuals, not by bytes.
What the blueprint fixes before any demand is known, the packet layout and
who sends what to whom, is the derivation's ``DeliverySchedule``, built once
per derivation; the stages execute it for one demand vector.

A packet is named by its file and its flat position: its place in the
canonical order of ``DeliverySchedule.template``, whose entry ``(support,
coupled_group, index, size)`` holds the support as a sorted user tuple and
the 1-based coupled group and index.  Message constituents are ``(file,
position)`` pairs; the transcript expands each to ``file, support,
coupled_group, index``.  Payloads are carried as bytes on messages and as
big integers internally.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import stat
import struct
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO

from .combinatorics import subsets_by_type
from .scheme import DerivedScheme

Constituent = tuple[int, int]  # (file, flat position)


class DemandOutOfRange(ValueError):
    """A demand vector of the wrong length, or an entry outside 1..N or past the 8-byte file key."""


class MemoryMismatch(ValueError):
    """A user's cached byte total differs from the memory budget."""


class UndecodableMessage(ValueError):
    """A message whose unknown constituents at a user are not exactly one."""


class MissingPacket(ValueError):
    """File assembly found a gap: a needed packet was never decoded."""


class DuplicateDelivery(ValueError):
    """A user decoded the same packet twice."""


class UndemandedPacket(ValueError):
    """A constituent's owner receives a packet of a file it did not demand."""


class PayloadSizeMismatch(ValueError):
    """A message payload's length differs from its round's packet size."""


class SeedOutOfRange(ValueError):
    """A delivery seed that is not an integer, or does not fit the word stream's 8 signed bytes."""


class UserOutOfRange(ValueError):
    """A user to decode that is not one of 1..K."""


class PacketLayoutMismatch(ValueError):
    """The packet template disagrees with the derivation's packet counts or sizes."""


class DeliveryCountMismatch(ValueError):
    """A receiver's packet count differs from the messages its group can carry to it."""


_FILE_KEY = b"ptcache-file-oracle"


def file_bytes(n: int, length: int) -> bytes:
    """The first ``length`` bytes of file ``n``, standing in for a real file.

    File ``n`` is the keyed SHAKE-256 stream of its index, so any byte
    ``b(n, offset)`` is reproducible without I/O.  Nothing is kept between
    calls.
    """
    h = hashlib.shake_256()
    h.update(_FILE_KEY)
    h.update(n.to_bytes(8, "big"))
    return h.digest(length)


class DeliverySchedule:
    """What a derivation fixes before any demand: where each packet sits and who sends it.

    The canonical order is: subfile type ascending, support set
    lexicographic, coupled group ascending, packet index ascending.
    Concatenating one file's packets in this order reproduces the file.
    ``template`` holds each position's ``(support, coupled_group, index,
    size)``; ``offsets`` has one more entry, each position's first byte and
    then the file's length.  A support mask is a support as a bitmask (bit u
    for user u): ``support_runs`` holds the ``(support mask, start, stop)``
    range of positions of each support set.  Three tables are keyed by round
    g = 1..G: ``size_of[g]`` is its packet size in bytes, ``first[g]`` maps a
    support mask to the position of index 1 of its coupled group g packets,
    and ``lacking[g]`` each round g position to its support mask's complement
    (so ``group_mask & lacking[g][pos]`` is the set of members lacking the
    packet).  ``cached_units[u]`` is the units of one file that user u's
    ``cached_ranges`` hold, and ``plans`` ``stream_delivery``'s groups and
    slot plans: per round and group type, in message order, ``(round, groups,
    group masks, receivers, sends)`` (``_slot_plan``).
    Demands only choose the files the packets are cut from.

    Raises ``PacketLayoutMismatch`` when the packets disagree with the
    derivation's counts or sizes, ``DeliveryCountMismatch`` when a receiver's
    packet count is not (its transmitters) x (repeats), i.e. its bijection
    cannot exist, then ``MemoryMismatch`` unless each user caches t*L/K units.
    """

    def __init__(self, derivation: DerivedScheme):
        p = derivation.params
        groups = derivation.grouping.groups
        self.size_of = {g: ell * p.unit for g, ell in enumerate(derivation.sizing.ell, 1)}
        entries: list[tuple[tuple[int, ...], int, int, int]] = []
        runs: list[tuple[int, int, int]] = []
        self.first: dict[int, dict[int, int]] = {g: {} for g in self.size_of}
        self.lacking: dict[int, dict[int, int]] = {g: {} for g in self.size_of}
        for ti, v in enumerate(derivation.layout.subfile_types):
            for support in subsets_by_type(groups, v):
                mask = sum(1 << u for u in support)
                lack = ~mask  # one int, shared by the support's positions
                start = len(entries)
                for g, size in self.size_of.items():
                    alpha = derivation.fs.intermediate[g - 1][ti]
                    pos = len(entries)
                    if alpha:
                        self.first[g][mask] = pos
                    self.lacking[g].update(dict.fromkeys(range(pos, pos + alpha), lack))
                    entries.extend((support, g, j, size) for j in range(1, alpha + 1))
                if len(entries) > start:
                    runs.append((mask, start, len(entries)))
        self.template = tuple(entries)
        self.support_runs = tuple(runs)
        self.offsets = tuple(itertools.accumulate((e[3] for e in entries), initial=0))
        self.bytes_per_file = derivation.sizing.L * p.unit
        if self.offsets[-1] != self.bytes_per_file:
            raise PacketLayoutMismatch(
                f"packet sizes sum to {self.offsets[-1]} bytes, expected {self.bytes_per_file}"
            )
        if len(entries) != derivation.packets_per_file:
            raise PacketLayoutMismatch(
                f"{len(entries)} packets per file, expected {derivation.packets_per_file}"
            )
        self._user_ranges: dict[int, list[tuple[int, int]]] = {}  # read while it is filled
        self._user_ranges = {1 << u: self.cached_ranges(1 << u) for u in range(1, p.K + 1)}
        self.cached_units = {
            u: sum(self.offsets[b] - self.offsets[a] for a, b in self._user_ranges[1 << u]) // p.unit
            for u in range(1, p.K + 1)
        }
        # By group type that a round sends and that has instances, its groups and their masks.
        groups_of = {
            k: (members, tuple(sum(1 << u for u in m) for m in members))
            for k, s in enumerate(derivation.layout.group_types)
            if any(row[k] for row in derivation.repeats) and (members := subsets_by_type(groups, s))
        }
        self.plans = [
            (g, *groups_of[k], *_slot_plan(derivation, g, k, repeat_count, groups_of[k][0][0]))
            for g, row in enumerate(derivation.repeats, 1)
            for k, repeat_count in enumerate(row) if repeat_count and k in groups_of
        ]
        target = Fraction(p.t * derivation.sizing.L, p.K)
        bad = {u: c for u, c in self.cached_units.items() if c != target}
        if bad:
            raise MemoryMismatch(f"per-file cached units {bad} differ from target {target}")

    def cached_ranges(self, users: int) -> list[tuple[int, int]]:
        """The ``(start, stop)`` position ranges whose support holds every user of
        the mask ``users``, in order, merged where they touch (shared; do not
        mutate).  One user's ranges are computed once, with the schedule."""
        ranges = self._user_ranges.get(users)
        if ranges is not None:
            return ranges
        ranges = []
        for mask, start, stop in self.support_runs:
            if mask & users == users:
                if ranges and ranges[-1][1] == start:
                    ranges[-1] = (ranges[-1][0], stop)
                else:
                    ranges.append((start, stop))
        return ranges


def schedule_of(derivation: DerivedScheme) -> DeliverySchedule:
    """``derivation``'s ``DeliverySchedule``, built on first use and kept in its ``__dict__``.

    So it lives as long as the derivation, and an object that delegates its
    attributes to another derivation gets a schedule of its own.
    """
    kept = vars(derivation)
    schedule = kept.get("_schedule")
    if schedule is None:
        schedule = kept["_schedule"] = DeliverySchedule(derivation)
    return schedule


class PacketStore:
    """The packets of the demanded files that their demanders lack, by canonical position.

    The layout is the derivation's: ``schedule`` (``schedule_of``) fixes
    every position's support and bytes; ``template``, ``offsets`` and
    ``bytes_per_file`` are its.  The values are the store's: it is keyed
    by the demand vector ``demands``, splits each demanded file once, when it
    is built, and never grows afterwards.  A file is kept once, as its packet
    payloads by position (``values[n]``; shared, do not mutate), except that
    a position every demander of the file caches holds ``None``: no message
    carries it, no decoder XORs it, and it is never converted.  A file's
    bytes are read one file at a time and not kept.  Delivery and decoding read ``demands`` from here, so a
    run has one demand vector, checked once, when the store is built.
    """

    def __init__(self, derivation: DerivedScheme, demands: Sequence[int]):
        self.derivation = derivation
        self.schedule = schedule = schedule_of(derivation)
        self.template, self.offsets = schedule.template, schedule.offsets
        self.bytes_per_file = schedule.bytes_per_file
        check_demands(derivation, demands)
        self.demands = tuple(demands)
        demanders: dict[int, int] = {}  # by file, the mask of its demanders
        for u, n in enumerate(demands, 1):
            demanders[n] = demanders.get(n, 0) | 1 << u
        slices = tuple(map(slice, self.offsets, self.offsets[1:]))  # cheaper to build than to keep
        end = [(len(slices), len(slices))]  # an empty cached range after the last position
        self.values: dict[int, list] = {}
        for n, users in sorted(demanders.items()):
            raw = file_bytes(n, self.bytes_per_file)
            values = [None] * len(slices)
            lacked = 0  # the first position after the last cached range
            for start, stop in schedule.cached_ranges(users) + end:
                values[lacked:start] = map(
                    int.from_bytes, map(raw.__getitem__, slices[lacked:start]), itertools.repeat("big")
                )
                lacked = stop
            del raw  # freed before the next file is read, not while it is
            self.values[n] = values

    @property
    def files(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))


def check_demands(derivation: DerivedScheme, demands: Sequence[int]) -> None:
    """Raise ``DemandOutOfRange`` unless ``demands`` names one file per user, in 1..N, below 2**64."""
    p = derivation.params
    if len(demands) != p.K:
        raise DemandOutOfRange(f"demand vector has length {len(demands)}, expected {p.K}")
    for d in demands:
        try:
            operator.index(d)
        except TypeError:
            raise DemandOutOfRange(f"demand {d!r} is not an integer") from None
        if not 1 <= d <= p.N:
            raise DemandOutOfRange(f"demand {d} outside 1..{p.N}")
        if d >= 2**64:
            raise DemandOutOfRange(f"demand {d} does not fit the file oracle's 8-byte index")


def split_files(derivation: DerivedScheme, demands: Sequence[int]) -> PacketStore:
    """The ``PacketStore`` of the demand vector ``demands``."""
    return PacketStore(derivation, demands)


def build_caches(store: PacketStore) -> dict[int, int]:
    """Each user's cached bytes of the library, by user, as the schedule checked them."""
    p = store.derivation.params
    return {user: u * p.unit * p.N for user, u in store.schedule.cached_units.items()}


class CodedMessage(NamedTuple):
    """One XOR multicast transmission.

    ``constituents`` records the ``(file, position)`` packets XOR-ed into the
    payload, for auditing; the wire content is only ``payload``.
    """

    round: int
    group: tuple[int, ...]
    transmitter: int
    repeat: int
    payload: bytes
    constituents: tuple[Constituent, ...]


_WORDS = struct.Struct(">8Q").unpack


def _slot_plan(
    derivation: DerivedScheme, g: int, k: int, repeat_count: int, group: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int, list[tuple[int, int]]]]]:
    """Who receives and who sends what in round g's groups of type k.

    A group's members come in component order, so a member slot's
    component, its packet count alpha, and its senders are the same in
    every group of the type; ``group`` is the first one, named in errors.
    Returns the receiving slots as ``(slot, alpha)`` and, per message,
    ``(transmitter slot, repeat, [(receiver number, entry), ...])``: entry
    is the message's place in the receiver's (sender, repeat) row-major
    bijection domain.
    """
    layout = derivation.layout
    alpha_of_comp = {c: derivation.fs.intermediate[g - 1][ti] for c, ti in layout.involved[k]}
    dagger_comps = derivation.spec.plans[g - 1].daggers[k]
    comps = [c for c, count in enumerate(layout.group_types[k]) for _ in range(count)]
    transmitters = [i for i, c in enumerate(comps) if c in dagger_comps]
    receivers = []
    for i, c in enumerate(comps):
        alpha = alpha_of_comp[c]
        if alpha == 0:
            continue
        senders = [a for a in transmitters if a != i]
        if len(senders) * repeat_count != alpha:
            raise DeliveryCountMismatch(
                f"receiver {group[i]} of group {group} needs {alpha} packets in "
                f"round {g}, but {len(senders)} transmitters x "
                f"{repeat_count} repeats carry {len(senders) * repeat_count}"
            )
        receivers.append((i, alpha, senders))
    sends = [
        (a, r + 1, [(ri, senders.index(a) * repeat_count + r)
                    for ri, (i, _, senders) in enumerate(receivers) if i != a])
        for a in transmitters for r in range(repeat_count)
    ]
    return [(i, alpha) for i, alpha, _ in receivers], sends


def stream_delivery(store: PacketStore, seed: int = 0) -> Iterator[CodedMessage]:
    """The coded messages of ``store``'s delivery, one at a time, in a fixed canonical order.

    Round g serves coupled group g.  Within a multicast group, each
    transmitter sends one message per repeat; the packet index a transmitter
    carries for a receiver is the receiver's seeded bijection evaluated at
    (transmitter, repeat), so the receiver collects each of its packet
    indices exactly once.  Messages are ordered by (round, group type, group,
    transmitter, repeat); any order decodes identically.

    A receiver's bijection is a Fisher-Yates shuffle of its alpha indices:
    step i = alpha-1 .. 1 swaps entries i and (next word) mod (i + 1).  A
    group's receivers draw in slot-plan order from one word stream per
    (seed, round, group), whose block b is the 64-byte blake2b of seed (8
    bytes, signed), round (2), members (4 each) and b (4, signed), big-endian,
    read as eight 64-bit words.  A receiver with alpha = 1 draws no word.

    The demands and the schedule are the store's, checked when it was built.
    A seed that is not an integer, or not one of 8 signed bytes, raises
    ``SeedOutOfRange`` in this call, before the first message; the returned
    iterator builds each message only when it is asked for.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise SeedOutOfRange(f"seed {seed!r} is not an integer") from None
    if not -(2**63) <= seed < 2**63:
        raise SeedOutOfRange(f"seed {seed} does not fit 8 signed bytes")
    return _messages(store, seed)


def generate_delivery(store: PacketStore, seed: int = 0) -> list[CodedMessage]:
    """``stream_delivery``'s messages as one list."""
    return list(stream_delivery(store, seed))


def _messages(store: PacketStore, seed: int) -> Iterator[CodedMessage]:
    """``stream_delivery``'s messages, for a checked seed."""
    schedule = store.schedule
    # By user: its demand and that file's values, as a constituent carries them.
    file_of = [None] + [(n, store.values[n]) for n in store.demands]
    for g, groups, group_masks, receivers, sends in schedule.plans:
        size_bytes = schedule.size_of[g]
        first = schedule.first[g]
        pack_key = struct.Struct(">qH%dIi" % len(groups[0])).pack  # seed, round, members, block
        # By receiver: its slot, alpha and shuffle steps (entry i, i + 1, word), in draw order.
        drawn = itertools.count()
        steps = [(i, alpha, [(k, k + 1, next(drawn)) for k in range(alpha - 1, 0, -1)])
                 for i, alpha in receivers]
        blocks = range((next(drawn) + 7) // 8)  # next(drawn) is now the group's word count
        for group, group_mask in zip(groups, group_masks):
            words = []
            for b in blocks:
                words += _WORDS(hashlib.blake2b(pack_key(seed, g, *group, b)).digest())
            # Receiver y's packets of (group minus y, g) sit at positions
            # first, first + 1, ... of its file, taken in its shuffled order.
            carried = []
            for i, alpha, swaps in steps:
                y = group[i]
                pos = first[group_mask ^ (1 << y)]
                order = list(range(pos, pos + alpha))
                for k, m, w in swaps:
                    j = words[w] % m
                    order[k], order[j] = order[j], order[k]
                n, values = file_of[y]
                carried.append((n, values, order))
            for a, repeat, served in sends:
                payload = 0
                constituents = []
                for ri, j in served:
                    n, values, order = carried[ri]
                    pos = order[j]
                    payload ^= values[pos]
                    constituents.append((n, pos))
                yield CodedMessage(
                    g, group, group[a], repeat,
                    payload.to_bytes(size_bytes, "big"),
                    tuple(constituents),
                )


def total_transmitted_units(messages: Iterable[CodedMessage], derivation: DerivedScheme) -> int:
    unit = derivation.params.unit
    return sum(len(m.payload) // unit for m in messages)


def decode(user: int, store: PacketStore, messages: Iterable[CodedMessage]) -> bytes:
    """``decode_all(store, messages)[user]``; a user outside 1..K is ``UserOutOfRange`` first."""
    if user not in range(1, len(store.demands) + 1):
        raise UserOutOfRange(f"user {user!r} outside 1..{len(store.demands)}")
    return decode_all(store, messages)[user]


def decode_all(store: PacketStore, messages: Iterable[CodedMessage]) -> dict[int, bytes]:
    """Every user's decoded file, by user.

    A packet the user lacks is its residual XOR the split's value.  The
    packets it caches are one byte slice of the file per range of the
    schedule's ``cached_ranges``, read from ``file_bytes``.  Users are
    visited grouped by demand, so each demanded file is read once per call
    and one file's bytes are alive at a time.
    """
    residuals = decode_residuals(store, messages)
    demands = store.demands
    sizes, offsets = [e[3] for e in store.template], store.offsets
    end = [(len(sizes), len(sizes))]  # an empty cached range after the last position
    files = {}
    raw_file = None  # the file ``raw`` holds
    for user in sorted(residuals, key=lambda u: demands[u - 1]):
        held = residuals[user]
        n = demands[user - 1]
        if n != raw_file:
            raw = None  # the last file's bytes are freed before the next are read
            raw, raw_file = file_bytes(n, store.bytes_per_file), n
        values = store.values[n]
        parts = []
        lacked = 0  # the first position after the last cached range
        for start, stop in store.schedule.cached_ranges(1 << user) + end:
            parts.extend(map(
                int.to_bytes, map(int.__xor__, held[lacked:start], values[lacked:start]),
                sizes[lacked:start], itertools.repeat("big"),
            ))
            parts.append(raw[offsets[start]:offsets[stop]])
            lacked = stop
        files[user] = b"".join(parts)
    return {user: files[user] for user in residuals}


def decode_residuals(store: PacketStore, messages: Iterable[CodedMessage]) -> dict[int, list[int]]:
    """Decode every user of ``store`` in one pass over the messages; the residuals by user.

    A round outside 1..G or a constituent that is not a packet of the
    message's round (a position outside the layout, or not an int, such as
    3.0 or [3]) raises ``UndecodableMessage``; a payload whose length is not the
    round's packet size raises ``PayloadSizeMismatch``.  Each constituent
    must be lacked by exactly one group member, its owner, who is not the
    transmitter and caches every other constituent; otherwise, or when the
    owner is not a user 1..K or the transmitter not a member,
    ``UndecodableMessage`` is raised.  With that checked, the owner's XOR of the other constituents
    uses only its cache, so with ``total`` the payload XOR-ed with every
    constituent, constituent i decodes to ``total ^ v_i``.  A constituent
    outside its owner's demand raises ``UndemandedPacket``, one decoded
    twice ``DuplicateDelivery``, one never decoded ``MissingPacket``.

    A user's residual list holds, per flat position, 0 for a cached packet
    and ``total`` for a decoded one, which is what the decoded packet
    differs from the split's by: its file is byte-exact exactly when every
    held value is 0.
    """
    schedule = store.schedule
    demands = store.demands
    lacking, size_of = schedule.lacking, schedule.size_of
    # By user, its held int per flat position, None until held; owners share
    # their message's total, not one total ^ v_i each.  A one-bit mask maps
    # to its user's demand, that file's values and the user's held list; any
    # other mask to Nones.
    held: dict[int, list] = {}
    owner_of = {}
    for u, n in enumerate(demands, 1):
        slots = held[u] = [None] * len(store.template)
        for start, stop in schedule.cached_ranges(1 << u):
            slots[start:stop] = [0] * (stop - start)
        owner_of[1 << u] = (n, store.values[n], slots)
    nobody = (None, None, None)
    group = None
    for msg in messages:
        if msg.group is not group:
            group = msg.group
            group_mask = _group_mask(group)
        transmitter = msg.transmitter
        if transmitter not in group:
            raise UndecodableMessage(
                f"transmitter {transmitter} is not a member of group {group}"
            )
        payload = msg.payload
        masks = lacking.get(msg.round)
        if masks is None or len(payload) != size_of[msg.round]:
            _reject_round(msg, size_of)
        total = int.from_bytes(payload, "big")
        seen = 1 << transmitter  # an owner in seen is the transmitter or another constituent's
        unknowns = []
        for n, pos in msg.constituents:
            try:
                lack = group_mask & masks.get(pos, 0)
                demand, values, slots = owner_of.get(lack, nobody)
                if demand != n or lack & seen:
                    _reject_constituent(msg, n, pos, group_mask, masks, store)
                seen |= lack
                total ^= values[pos]
            except TypeError:  # a position that is not an int, such as 3.0 or [3]
                _reject_constituent(msg, n, pos, group_mask, masks, store)
            unknowns.append((slots, pos, lack))
        for slots, pos, lack in unknowns:
            if slots[pos] is not None:
                owner = lack.bit_length() - 1
                raise DuplicateDelivery(
                    f"user {owner} decoded {_packet_id(store, demands[owner - 1], pos)} twice"
                )
            slots[pos] = total
    for u, slots in held.items():
        if None in slots:
            pid = _packet_id(store, demands[u - 1], slots.index(None))
            raise MissingPacket(f"user {u} never decoded {pid}")
    return held


def _packet_id(store: PacketStore, n: int, pos: int) -> tuple:
    """``(file, support, coupled_group, index)`` of a packet, for messages."""
    return (n,) + store.template[pos][:3]


def _group_mask(group: tuple[int, ...]) -> int:
    """The group's members as a bitmask (bit u for member u)."""
    mask = 0
    for u in group:
        if u < 0:
            raise UndecodableMessage(f"member {u} of group {group} is not a user")
        mask |= 1 << u
    return mask


def _reject_round(msg: CodedMessage, size_of: dict[int, int]) -> NoReturn:
    """Raise the named error for a message with an unknown round or a wrong payload size."""
    if msg.round not in size_of:
        raise UndecodableMessage(f"round {msg.round} is not a round 1..{len(size_of)}")
    raise PayloadSizeMismatch(
        f"round {msg.round} payload of transmitter {msg.transmitter} in group {msg.group} "
        f"has {len(msg.payload)} bytes, expected {size_of[msg.round]}"
    )


def _reject_constituent(
    msg: CodedMessage,
    n: int,
    pos: int,
    group_mask: int,
    masks: dict[int, int],
    store: PacketStore,
) -> NoReturn:
    """Raise the named error for a constituent that failed ``decode_residuals``'s lookups."""
    if not (isinstance(pos, int) and 0 <= pos < len(store.template)):
        raise UndecodableMessage(f"{(n, pos)} is not a packet of the layout")
    if pos not in masks:
        raise UndecodableMessage(f"{_packet_id(store, n, pos)} is not a packet of round {msg.round}")
    pid = _packet_id(store, n, pos)
    lack = group_mask & masks[pos]
    if lack.bit_count() != 1:
        raise UndecodableMessage(
            f"{lack.bit_count()} members of group {msg.group} lack {pid}, expected 1"
        )
    owner = lack.bit_length() - 1
    demands = store.demands
    if owner == msg.transmitter:
        raise UndecodableMessage(f"transmitter {owner} does not cache {pid}")
    if not 1 <= owner <= len(demands):
        raise UndecodableMessage(f"owner {owner} of {pid} is not a user 1..{len(demands)}")
    if n != demands[owner - 1]:
        raise UndemandedPacket(f"user {owner} decoded {pid} outside its demand")
    # Each owner lacks only its own constituent, so it caches all the
    # others exactly when no two constituents share an owner.
    raise UndecodableMessage(
        f"a member of group {msg.group} lacks two constituents of one message"
    )


_HEAD = '{"round":%d,"group":[%s],'
_LINE = '%s"transmitter":%d,"repeat":%d,"constituents":[%s],"payload_sha256":"%s"}'
_BLOCK = 256  # transcript lines per write; 2048 cost 0.8 MB of peak RSS at K=17 t=4


def record_transcript(
    messages: Iterable[CodedMessage], fh: TextIO, store: PacketStore
) -> Iterator[CodedMessage]:
    """Pass ``messages`` through, writing each one's JSON-lines transcript line to ``fh``.

    Each line is the compact ``json.dumps`` of ``{"round", "group",
    "transmitter", "repeat", "constituents": [{"file", "support",
    "coupled_group", "index"}, ...], "payload_sha256"}``: one ``_LINE`` fill
    of the ``(round, group)`` head, the transmitter, the repeat, one join of
    the constituents and the payload hash.  The head is rebuilt only when a
    message's round or group is not the same object as the last message's.
    A constituent is the text of its file followed by the text of its flat
    position, both built once from ``store``.  A position outside the layout
    raises the decoder's ``UndecodableMessage`` once the earlier messages'
    lines are written; a file the store never split is written as given (its
    ``json.dumps``, or the JSON string of its ``repr`` where JSON has no form
    for it, as for ``b"1"``), for ``decode_residuals`` to judge.  A file
    equal (``==``, same hash) to a split file, as ``True`` or ``1.0`` is to
    file 1, is written as that file's number, because the decoder also
    compares files by ``==``.  Lines are written in blocks of ``_BLOCK``, one
    newline after each, one join and one write per block; the last block
    when the messages run out.
    """
    file_text = {n: '{"file":%d,' % n for n in store.files}
    packet_text = [
        '"support":[%s],"coupled_group":%d,"index":%d}' % (",".join(map(str, support)), g, j)
        for support, g, j, _ in store.template
    ]
    sha256 = hashlib.sha256
    rnd = group = object()  # no message's round or group: the first message builds the head
    block = []
    for m in messages:
        try:
            parts = [file_text[n] + packet_text[pos] for n, pos in m.constituents if pos >= 0]
            if len(parts) < len(m.constituents):  # a negative position indexes from the end
                raise IndexError
        except (KeyError, IndexError, TypeError):
            # Kept apart from the fast loop: one loop with dict.get, or a dict with __missing__,
            # ran 2.5-5.4% slower on the K=17 t=4 transcript (median of 40 interleaved pairs).
            # A file is its json.dumps (%d rejects "1" and None); on a position outside the
            # layout, the lines so far are written, not this one.
            parts = []
            for n, pos in m.constituents:
                if not (isinstance(pos, int) and 0 <= pos < len(packet_text)):
                    block.append("")
                    fh.write("\n".join(block))
                    raise UndecodableMessage(f"{(n, pos)} is not a packet of the layout") from None
                parts.append('{"file":%s,' % json.dumps(n, default=repr) + packet_text[pos])
        if m.round is not rnd or m.group is not group:
            rnd, group = m.round, m.group
            head = _HEAD % (rnd, ",".join(map(str, group)))
        block.append(_LINE % (head, m.transmitter, m.repeat, ",".join(parts),
                              sha256(m.payload).hexdigest()))
        if len(block) == _BLOCK:
            block.append("")  # the join then ends the block with a newline
            fh.write("\n".join(block))
            block = []
        yield m
    block.append("")
    fh.write("\n".join(block))


@contextmanager
def rewriting(path: str) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text to write from its start; cut it where the writing ended.

    The file is created if missing, but never truncated on open or renamed
    over: on ext4 (default ``auto_da_alloc``) either starts writing the new
    data to disk at once, and the next run's truncate waits for that write
    (README, "CLI").  Only a regular file is cut, so ``/dev/null`` works.
    """
    with open(path, "w", encoding="utf-8",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_transcript(messages: Iterable[CodedMessage], path: str, store: PacketStore) -> None:
    """Write the transcript of ``messages`` to ``path`` (``record_transcript``, ``rewriting``)."""
    with rewriting(path) as fh:
        for _ in record_transcript(messages, fh, store):
            pass
