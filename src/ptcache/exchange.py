"""Byte-exact execution of a PT scheme: split, place, deliver, decode.

Files come from a deterministic keyed byte oracle, get split into
heterogeneous packets in a canonical order, are cached at the users whose
support sets cover them, and are exchanged through two (or G) rounds of XOR
multicast messages.  Decoding is checked against the bytes the split read.

A packet is named by its file and its flat position: its place in the
canonical order of ``PacketStore.template``, whose entry ``(support,
coupled_group, index, size)`` holds the support as a sorted user tuple and
the 1-based coupled group and index.  Message constituents are ``(file,
position)`` pairs; the transcript expands each to ``file, support,
coupled_group, index``.  Payloads are carried as bytes on messages and as
big integers internally.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO

from .combinatorics import subsets_by_type
from .scheme import DerivedScheme

Constituent = tuple[int, int]  # (file, flat position)


class DemandOutOfRange(ValueError):
    """A demand vector entry names a file outside 1..N."""


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
    """A delivery seed outside the 8 signed bytes of the bijection key."""


class PacketLayoutMismatch(ValueError):
    """The packet template disagrees with the derivation's packet counts or sizes."""


class DeliveryCountMismatch(ValueError):
    """A receiver's packet count differs from the messages its group can carry to it."""


class CacheMismatch(ValueError):
    """Caches handed to one decode that name a user twice or split different stores."""


class FileOracle:
    """Deterministic keyed byte source standing in for real files.

    File ``n`` is the keyed SHAKE-256 stream of its index, so any byte
    ``b(n, offset)`` is reproducible without I/O.  Nothing is kept between
    calls; a file-backed source can replace this class by providing the same
    method.
    """

    def __init__(self, key: bytes = b"ptcache-file-oracle"):
        self.key = key

    def file_bytes(self, n: int, length: int) -> bytes:
        h = hashlib.shake_256()
        h.update(self.key)
        h.update(n.to_bytes(8, "big"))
        return h.digest(length)


class PacketStore:
    """Per-file packet payloads in canonical order.

    The canonical order is: subfile type ascending, support set
    lexicographic, coupled group ascending, packet index ascending.
    Concatenating one file's packets in this order reproduces the file;
    ``offsets`` holds each position's byte offset, ``support_mask`` each
    position's support as a bitmask (bit u for user u), ``support_runs`` the
    ``(support, start, stop)`` range of positions of each support set, and
    ``first[g - 1]`` maps a support mask to the position of index 1 of its
    coupled group g packets.  The store also keeps the bytes it split, which
    decoding is checked against.
    """

    def __init__(self, derivation: DerivedScheme, oracle: FileOracle):
        self.derivation = derivation
        self.oracle = oracle
        unit = derivation.params.unit
        groups = derivation.grouping.groups
        entries: list[tuple[tuple[int, ...], int, int, int]] = []
        masks: list[int] = []
        runs: list[tuple[tuple[int, ...], int, int]] = []
        self.first: tuple[dict[int, int], ...] = tuple({} for _ in range(derivation.spec.G))
        for ti, v in enumerate(derivation.layout.subfile_types):
            for support in subsets_by_type(groups, v):
                mask = sum(1 << u for u in support)
                start = len(entries)
                for g in range(1, derivation.spec.G + 1):
                    alpha = derivation.fs.intermediate[g - 1][ti]
                    if alpha:
                        self.first[g - 1][mask] = len(entries)
                    size = derivation.sizing.ell[g - 1] * unit
                    entries.extend((support, g, j, size) for j in range(1, alpha + 1))
                    masks.extend([mask] * alpha)
                if len(entries) > start:
                    runs.append((support, start, len(entries)))
        self.template = tuple(entries)
        self.support_mask = tuple(masks)
        self.support_runs = tuple(runs)
        self.offsets = tuple(itertools.accumulate((e[3] for e in entries[:-1]), initial=0))
        self.bytes_per_file = derivation.sizing.L * unit
        if sum(e[3] for e in entries) != self.bytes_per_file:
            raise PacketLayoutMismatch(
                f"packet sizes sum to {sum(e[3] for e in entries)} bytes, "
                f"expected {self.bytes_per_file}"
            )
        if len(entries) != derivation.packets_per_file:
            raise PacketLayoutMismatch(
                f"{len(entries)} packets per file, expected {derivation.packets_per_file}"
            )
        self._bytes: dict[int, bytes] = {}
        self._values: dict[int, list[int]] = {}

    @property
    def packets_per_file(self) -> int:
        return len(self.template)

    def materialize(self, files: Iterable[int]) -> None:
        slices = None
        for n in files:
            if n in self._values:
                continue
            if not 1 <= n <= self.derivation.params.N:
                raise DemandOutOfRange(f"file {n} outside 1..{self.derivation.params.N}")
            if slices is None:
                slices = [slice(o, o + e[3]) for e, o in zip(self.template, self.offsets)]
            raw = self.oracle.file_bytes(n, self.bytes_per_file)
            self._bytes[n] = raw
            self._values[n] = list(
                map(int.from_bytes, map(raw.__getitem__, slices), itertools.repeat("big"))
            )

    @property
    def files(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def file_bytes(self, n: int) -> bytes:
        """The bytes of materialized file n, as read for the split."""
        return self._bytes[n]

    def file_values(self, n: int) -> list[int]:
        """File n's packet payloads by canonical position (shared; do not mutate)."""
        return self._values[n]


def split_files(
    derivation: DerivedScheme,
    oracle: FileOracle | None = None,
    files: Iterable[int] | None = None,
) -> PacketStore:
    """Split files into packets; by default all N files are materialized."""
    store = PacketStore(derivation, oracle or FileOracle())
    store.materialize(range(1, derivation.params.N + 1) if files is None else files)
    return store


@dataclass(frozen=True)
class Cache:
    """One user's cache: every packet whose support set contains the user.

    ``units_per_file`` is the size of those packets of one file, in units.
    """

    user: int
    store: PacketStore
    units_per_file: int

    @property
    def total_bytes(self) -> int:
        p = self.store.derivation.params
        return self.units_per_file * p.unit * p.N


def build_caches(derivation: DerivedScheme, store: PacketStore) -> list[Cache]:
    """Caches for all K users, with the exact memory audit.

    Every user must cache (t/K)*N*L*unit bytes; the identity is checked in
    integer arithmetic (K * cached_units == t * L per file).
    """
    p = derivation.params
    cached = [0] * (p.K + 1)
    for support, _, _, size in store.template:
        for u in support:
            cached[u] += size
    caches = [Cache(user, store, cached[user] // p.unit) for user in range(1, p.K + 1)]
    bad = {
        c.user: c.units_per_file for c in caches if c.units_per_file * p.K != p.t * derivation.sizing.L
    }
    if bad:
        target = Fraction(p.t * derivation.sizing.L, p.K)
        raise MemoryMismatch(
            f"per-file cached units {bad} differ from target {target}"
        )
    return caches


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


_WORD = struct.Struct(">Q").unpack_from


def _bijection(key_input: bytes, n: int, first: int) -> list[int]:
    """Positions ``first .. first + n - 1`` in a receiver's seeded Fisher-Yates order.

    ``key_input``: seed (8 bytes, signed), round (2), members, receiver (4
    each), big-endian.  Step w swaps entries n-1-w and (word w) mod (n-w);
    word w is 64-bit word w % 8 of the blake2b of counter w // 8 keyed by
    the 16-byte blake2b of ``key_input``.
    """
    key = hashlib.blake2b(key_input, digest_size=16).digest()
    digest = hashlib.blake2b(bytes(4), key=key).digest()
    if n == 2:  # one step, word 0 mod 2: the low bit of byte 7
        return [first, first + 1] if digest[7] & 1 else [first + 1, first]
    out = list(range(first, first + n))
    for w in range(n - 1):
        if w and w % 8 == 0:
            digest = hashlib.blake2b((w // 8).to_bytes(4, "big"), key=key).digest()
        i = n - 1 - w
        j = _WORD(digest, w % 8 * 8)[0] % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


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


def stream_delivery(
    derivation: DerivedScheme,
    store: PacketStore,
    demands: Sequence[int],
    seed: int = 0,
) -> Iterator[CodedMessage]:
    """The coded messages of the delivery phase, one at a time, in a fixed canonical order.

    Round g serves coupled group g.  Within a multicast group, each
    transmitter sends one message per repeat; the packet index a transmitter
    carries for a receiver is the receiver's seeded bijection evaluated at
    (transmitter, repeat), so the receiver collects each of its packet
    indices exactly once.  Messages are ordered by (round, group type, group,
    transmitter, repeat); any order decodes identically.

    Every check runs in this call, before the first message is built: the
    demands, the seed, the split of the demanded files and every round's
    slot plan.  Raises ``DeliveryCountMismatch`` when a receiver's packet
    count is not (its transmitters) x (repeats), i.e. the bijection cannot
    exist, and ``SeedOutOfRange`` for a seed outside 8 signed bytes.  The
    returned iterator builds each message only when it is asked for.
    """
    p = derivation.params
    if len(demands) != p.K:
        raise DemandOutOfRange(f"demand vector has length {len(demands)}, expected {p.K}")
    for d in demands:
        if not 1 <= d <= p.N:
            raise DemandOutOfRange(f"demand {d} outside 1..{p.N}")
    if not -(2**63) <= seed < 2**63:
        raise SeedOutOfRange(f"seed {seed} does not fit 8 signed bytes")
    store.materialize(set(demands))
    grouping = derivation.grouping
    groups_of: dict[int, list[tuple[int, ...]]] = {}  # by group type, shared by the rounds
    plans = []
    for g in range(1, derivation.spec.G + 1):
        for k, s in enumerate(derivation.layout.group_types):
            repeat_count = derivation.repeats[g - 1][k]
            if repeat_count == 0:
                continue
            if any(c > size for c, size in zip(s, grouping.sizes)):
                continue  # group type with no instances at this grouping
            groups = groups_of.get(k)
            if groups is None:
                groups = groups_of[k] = subsets_by_type(grouping.groups, s)
            plans.append((g, s, groups, *_slot_plan(derivation, g, k, repeat_count, groups[0])))
    return _messages(derivation, store, demands, seed, plans)


def generate_delivery(
    derivation: DerivedScheme,
    store: PacketStore,
    demands: Sequence[int],
    seed: int = 0,
) -> list[CodedMessage]:
    """``stream_delivery``'s messages as one list, built with the cyclic collector paused.

    Every object the list keeps is acyclic (message tuples, ints, bytes), so
    the collector can only waste time on them.  At theorem1 K=17 t=4 (26 754
    messages, 2-core host) it ran 232-238 times while the list grew, 1-2 of
    them full: 23-45 ms of a 200-295 ms delivery.  Paused, it costs one
    young collection at the first allocation after it is enabled again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(stream_delivery(derivation, store, demands, seed))
    finally:
        if enabled:
            gc.enable()


def _messages(
    derivation: DerivedScheme,
    store: PacketStore,
    demands: Sequence[int],
    seed: int,
    plans: list[tuple],
) -> Iterator[CodedMessage]:
    """``stream_delivery``'s messages, for checked inputs and their slot plans.

    ``plans`` holds ``(round, group type, groups, receivers, sends)`` per
    round and group type, in message order; see ``_slot_plan``.
    """
    p = derivation.params
    values_of = [None] + [store.file_values(n) for n in demands]  # by user
    suffix = [y.to_bytes(4, "big") for y in range(p.K + 1)]  # by user
    seed_bytes = seed.to_bytes(8, "big", signed=True)
    for g, s, groups, receivers, sends in plans:
        size_bytes = derivation.sizing.ell[g - 1] * p.unit
        round_prefix = seed_bytes + g.to_bytes(2, "big")
        first = store.first[g - 1]
        pack_members = struct.Struct(">%dI" % sum(s)).pack
        for group in groups:
            # Receiver y's packets of (group minus y, g) sit at positions
            # first, first + 1, ... of its file, taken in bijection order.
            prefix = None
            carried = []
            group_mask = 0
            for u in group:
                group_mask |= 1 << u
            for i, alpha in receivers:
                y = group[i]
                pos = first[group_mask ^ (1 << y)]
                if alpha == 1:  # the only permutation of one index: no key to hash
                    carried.append((demands[y - 1], (pos,), values_of[y]))
                    continue
                if prefix is None:
                    prefix = round_prefix + pack_members(*group)
                carried.append(
                    (demands[y - 1], _bijection(prefix + suffix[y], alpha, pos), values_of[y])
                )
            for a, repeat, served in sends:
                payload = 0
                constituents = []
                for ri, j in served:
                    n, order, values = carried[ri]
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


def decode(
    user: int,
    cache: Cache,
    messages: Iterable[CodedMessage],
    demands: Sequence[int],
) -> bytes:
    """Reconstruct one user's demanded file; ``user`` is ``cache.user``.

    Runs ``decode_all`` for this cache alone, so every message is checked.
    """
    return decode_all([cache], messages, demands)[user]


def decode_all(
    caches: Sequence[Cache],
    messages: Iterable[CodedMessage],
    demands: Sequence[int],
) -> dict[int, bytes]:
    """``decode_files`` as one dict: every decoded file by ``cache.user``."""
    return dict(decode_files(caches, messages, demands))


def decode_files(
    caches: Sequence[Cache],
    messages: Iterable[CodedMessage],
    demands: Sequence[int],
) -> Iterator[tuple[int, bytes]]:
    """Decode the users of ``caches`` in one pass over the messages.

    Every message is checked, whoever is decoded.  A round outside 1..G or
    a constituent that is not a packet of the message's round raises
    ``UndecodableMessage``; a payload whose length is not the round's packet
    size raises ``PayloadSizeMismatch``.  Each constituent must be lacked by
    exactly one group member, its owner, who is not the transmitter and
    caches every other constituent; otherwise, or when the owner is not a
    user 1..K or the transmitter not a member, ``UndecodableMessage`` is
    raised.  With that checked, the owner's XOR of the other constituents
    uses only its cache, so with ``total`` the payload XOR-ed with every
    constituent, constituent i decodes to ``total ^ v_i``.  A constituent
    outside its owner's demand raises ``UndemandedPacket``, one decoded
    twice ``DuplicateDelivery``.  A decoded user holds 0 for a cached packet
    and ``total`` for a decoded one, so its file is held XOR value per
    position, joined in canonical order; a packet never decoded raises
    ``MissingPacket``.

    Two caches of one user, or a cache of another store than the first
    cache's, raise ``CacheMismatch`` before any message is read.  Every
    check, ``MissingPacket`` included, runs in this call.  The returned
    iterator then yields ``(cache.user, file)`` in ``caches`` order,
    assembling each file only when it is asked for.
    """
    if not caches:
        raise ValueError("no caches")
    store = caches[0].store
    derivation = store.derivation
    template = store.template
    # Per round, the complement of each of its positions' support masks:
    # ``group_mask & lacking[pos]`` is the set of members lacking the packet.
    lacking: dict[int, dict[int, int]] = {g: {} for g in range(1, derivation.spec.G + 1)}
    for pos, ((_, g, _, _), mask) in enumerate(zip(template, store.support_mask)):
        lacking[g][pos] = ~mask
    size_of = {g: ell * derivation.params.unit for g, ell in enumerate(derivation.sizing.ell, 1)}
    # A one-bit mask maps to its user's demand; any other mask maps to None.
    demand_of = {1 << u: n for u, n in enumerate(demands, 1)}
    values_of = {n: store.file_values(n) for n in set(demands)}
    # By user bit, each decoded user's held int per flat position, None until
    # held; owners share their message's total, not one total ^ v_i each.
    held: dict[int, list] = {}
    for cache in caches:
        if cache.store is not store:
            raise CacheMismatch(f"the cache of user {cache.user} splits another store")
        if 1 << cache.user in held:
            raise CacheMismatch(f"two caches of user {cache.user}")
        held[1 << cache.user] = [None] * len(template)
    for support, start, stop in store.support_runs:
        for user in support:
            slots = held.get(1 << user)
            if slots is not None:
                slots[start:stop] = [0] * (stop - start)
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
        transmitter_bit = 1 << transmitter
        payload = msg.payload
        masks = lacking.get(msg.round)
        if masks is None or len(payload) != size_of[msg.round]:
            _reject_round(msg, size_of)
        total = int.from_bytes(payload, "big")
        seen = 0
        unknowns = []
        for n, pos in msg.constituents:
            lack = group_mask & masks.get(pos, 0)
            if lack == transmitter_bit or lack & seen or demand_of.get(lack) != n:
                _reject_constituent(msg, n, pos, group_mask, masks, store, demands)
            seen |= lack
            total ^= values_of[n][pos]
            unknowns.append((lack, pos))
        for lack, pos in unknowns:
            slots = held.get(lack)
            if slots is None:
                continue
            if slots[pos] is not None:
                owner = lack.bit_length() - 1
                raise DuplicateDelivery(
                    f"user {owner} decoded {_packet_id(store, demands[owner - 1], pos)} twice"
                )
            slots[pos] = total
    for cache in caches:
        slots = held[1 << cache.user]
        if None in slots:
            pid = _packet_id(store, demands[cache.user - 1], slots.index(None))
            raise MissingPacket(f"user {cache.user} never decoded {pid}")
    sizes = [e[3] for e in template]
    return (
        (c.user, _assemble(held.pop(1 << c.user), values_of[demands[c.user - 1]], sizes))
        for c in caches
    )


def _assemble(held: list[int], values: list[int], sizes: list[int]) -> bytes:
    """A decoded file: held XOR value per position, joined in canonical order."""
    return b"".join(
        map(int.to_bytes, map(int.__xor__, held, values), sizes, itertools.repeat("big"))
    )


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
    demands: Sequence[int],
) -> NoReturn:
    """Raise the named error for a constituent that failed ``decode_all``'s mask test."""
    if pos not in masks:
        if isinstance(pos, int) and 0 <= pos < len(store.template):
            raise UndecodableMessage(
                f"{_packet_id(store, n, pos)} is not a packet of round {msg.round}"
            )
        raise UndecodableMessage(f"{(n, pos)} is not a packet of the layout")
    pid = _packet_id(store, n, pos)
    lack = group_mask & masks[pos]
    if lack.bit_count() != 1:
        raise UndecodableMessage(
            f"{lack.bit_count()} members of group {msg.group} lack {pid}, expected 1"
        )
    owner = lack.bit_length() - 1
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


_HEAD = '{"round":%d,"group":[%s],"transmitter":%d,"repeat":%d,"constituents":['
_TAIL = '],"payload_sha256":"%s"}'
_BLOCK = 256  # transcript lines per write; 2048 cost 0.8 MB of peak RSS at K=17 t=4


def _line_format(store: PacketStore) -> Callable[[CodedMessage], str]:
    """The transcript line of a message, by a function built once for ``store``.

    Each line is the compact ``json.dumps`` of ``{"round", "group",
    "transmitter", "repeat", "constituents": [{"file", "support",
    "coupled_group", "index"}, ...], "payload_sha256"}``, built by one
    ``%`` format per constituent count.  A constituent is the text of its
    file followed by the text of its flat position, both built once from
    ``store``.  A file the store never materialized raises ``KeyError``, a
    position past its layout ``IndexError``; positions are not otherwise
    checked, which is ``decode_files``'s job.
    """
    file_text = {n: '{"file":%d,' % n for n in store.files}
    packet_text = [
        '"support":[%s],"coupled_group":%d,"index":%d}' % (",".join(map(str, support)), g, j)
        for support, g, j, _ in store.template
    ]
    formats: dict[int, str] = {}  # by constituent count
    sha256 = hashlib.sha256
    group = group_text = None

    def line(m: CodedMessage) -> str:
        nonlocal group, group_text
        if m.group is not group:  # group tuples are shared by the rounds: no round here
            group = m.group
            group_text = ",".join(map(str, group))
        count = len(m.constituents)
        fmt = formats.get(count)
        if fmt is None:
            fmt = formats[count] = _HEAD + ",".join(["%s%s"] * count) + _TAIL
        args = [m.round, group_text, m.transmitter, m.repeat]
        for n, pos in m.constituents:
            args.append(file_text[n])
            args.append(packet_text[pos])
        args.append(sha256(m.payload).hexdigest())
        return fmt % tuple(args)

    return line


def transcript_lines(messages: Iterable[CodedMessage], store: PacketStore) -> Iterator[str]:
    """JSON-lines transcript: one record per message, payloads as hashes (``_line_format``)."""
    return map(_line_format(store), messages)


def record_transcript(
    messages: Iterable[CodedMessage], fh: TextIO, store: PacketStore
) -> Iterator[CodedMessage]:
    """Pass ``messages`` through, writing each one's transcript line to ``fh`` on the way.

    Lines are written in blocks of ``_BLOCK``, one newline after each, one
    join and one write per block; the last block when the messages run out.
    """
    line = _line_format(store)
    block = []
    for m in messages:
        block.append(line(m))
        if len(block) == _BLOCK:
            block.append("")  # the join then ends the block with a newline
            fh.write("\n".join(block))
            block = []
        yield m
    block.append("")
    fh.write("\n".join(block))


def write_transcript(messages: Iterable[CodedMessage], path: str, store: PacketStore) -> None:
    """Write the transcript of ``messages`` to ``path`` (``record_transcript``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for _ in record_transcript(messages, fh, store):
            pass
