"""Byte-exact execution of a PT scheme: split, place, deliver, decode.

Files come from a deterministic keyed byte oracle, get split into
heterogeneous packets in a canonical order, are cached at the users whose
support sets cover them, and are exchanged through two (or G) rounds of XOR
multicast messages.  Decoding is checked against the bytes the split read.

Packet ids are tuples ``(file, support, coupled_group, index)`` with the
support as a sorted user tuple and 1-based coupled group and index.
Payloads are carried as bytes on messages and as big integers internally.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .combinatorics import subsets_by_type
from .scheme import DerivedScheme

PacketId = tuple[int, tuple[int, ...], int, int]


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


class PacketLayoutMismatch(ValueError):
    """The packet template disagrees with the derivation's packet counts or sizes."""


class DeliveryCountMismatch(ValueError):
    """A receiver's packet count differs from the messages its group can carry to it."""


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
    ``offsets`` holds each position's byte offset.  The store also keeps the
    bytes it split, which decoding is checked against.
    """

    def __init__(self, derivation: DerivedScheme, oracle: FileOracle):
        self.derivation = derivation
        self.oracle = oracle
        unit = derivation.params.unit
        groups = derivation.grouping.groups
        entries: list[tuple[tuple[int, ...], int, int, int]] = []
        for ti, v in enumerate(derivation.layout.subfile_types):
            for support in subsets_by_type(groups, v):
                for g in range(1, derivation.spec.G + 1):
                    for j in range(1, derivation.fs.intermediate[g - 1][ti] + 1):
                        entries.append((support, g, j, derivation.sizing.ell[g - 1] * unit))
        self.template = tuple(entries)
        self.index = {e[:3]: pos for pos, e in enumerate(entries)}
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
        for n in files:
            if n in self._values:
                continue
            if not 1 <= n <= self.derivation.params.N:
                raise DemandOutOfRange(f"file {n} outside 1..{self.derivation.params.N}")
            raw = self.oracle.file_bytes(n, self.bytes_per_file)
            values = [
                int.from_bytes(raw[offset : offset + size], "big")
                for (_, _, _, size), offset in zip(self.template, self.offsets)
            ]
            self._bytes[n] = raw
            self._values[n] = values

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


@dataclass(frozen=True)
class CodedMessage:
    """One XOR multicast transmission.

    ``constituents`` records the packet ids XOR-ed into the payload, for
    auditing; the wire content is only ``payload``.
    """

    round: int
    group: tuple[int, ...]
    transmitter: int
    repeat: int
    payload: bytes
    constituents: tuple[PacketId, ...]


_WORDS = struct.Struct(">8Q")


def _shuffled_indices(n: int, key: bytes) -> list[int]:
    """Fisher-Yates permutation of 1..n driven by a keyed counter hash."""
    out = list(range(1, n + 1))
    words: list[int] = []
    for counter in range((n + 6) // 8):  # 8 words per digest, n - 1 needed
        digest = hashlib.blake2b(
            counter.to_bytes(4, "big"), digest_size=64, key=key
        ).digest()
        words.extend(_WORDS.unpack(digest))
    for i in range(n - 1, 0, -1):
        j = words[n - 1 - i] % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _bijection_key(group_prefix: bytes, receiver: int) -> bytes:
    """Key of a receiver's bijection.

    ``group_prefix`` is seed (8 bytes, signed) + round (2 bytes) + each
    group member (4 bytes), all big-endian; the receiver follows in 4 bytes.
    """
    raw = group_prefix + receiver.to_bytes(4, "big")
    return hashlib.blake2b(raw, digest_size=16).digest()


def generate_delivery(
    derivation: DerivedScheme,
    store: PacketStore,
    demands: Sequence[int],
    seed: int = 0,
) -> list[CodedMessage]:
    """All coded messages of the delivery phase, in a fixed canonical order.

    Round g serves coupled group g.  Within a multicast group, each
    transmitter sends one message per repeat; the packet index a transmitter
    carries for a receiver is the receiver's seeded bijection evaluated at
    (transmitter, repeat), so the receiver collects each of its packet
    indices exactly once.  Messages are ordered by (round, group type, group,
    transmitter, repeat); any order decodes identically.

    Raises ``DeliveryCountMismatch`` when a receiver's packet count is not
    (its transmitters) x (repeats), i.e. the bijection cannot exist.
    """
    p = derivation.params
    if len(demands) != p.K:
        raise DemandOutOfRange(f"demand vector has length {len(demands)}, expected {p.K}")
    for d in demands:
        if not 1 <= d <= p.N:
            raise DemandOutOfRange(f"demand {d} outside 1..{p.N}")
    store.materialize(set(demands))

    grouping = derivation.grouping
    layout = derivation.layout
    comp_of = [0] + [grouping.group_of(u) for u in range(1, p.K + 1)]  # index 0 unused
    index = store.index
    seed_bytes = seed.to_bytes(8, "big", signed=True)
    messages: list[CodedMessage] = []
    for g in range(1, derivation.spec.G + 1):
        entries = derivation.fs.intermediate[g - 1]
        plan = derivation.spec.plans[g - 1]
        size_bytes = derivation.sizing.ell[g - 1] * p.unit
        round_prefix = seed_bytes + g.to_bytes(2, "big")
        for k, s in enumerate(layout.group_types):
            repeat_count = derivation.repeats[g - 1][k]
            if repeat_count == 0:
                continue
            if any(c > size for c, size in zip(s, grouping.sizes)):
                continue  # group type with no instances at this grouping
            alpha_of_comp = {c: entries[ti] for c, ti in layout.involved[k]}
            dagger_comps = plan.daggers[k]
            for group in subsets_by_type(grouping.groups, s):
                transmitters = tuple([u for u in group if comp_of[u] in dagger_comps])
                group_prefix = round_prefix + b"".join([u.to_bytes(4, "big") for u in group])
                # Receiver y's packets of (group minus y, g) sit at flat
                # positions base+1..base+alpha of its file; the domain of its
                # bijection is (sender slot, repeat) in row-major order.
                receivers = []
                for i, y in enumerate(group):
                    alpha = alpha_of_comp[comp_of[y]]
                    if alpha == 0:
                        continue
                    senders = transmitters if y not in transmitters else tuple(
                        [x for x in transmitters if x != y]
                    )
                    if len(senders) * repeat_count != alpha:
                        raise DeliveryCountMismatch(
                            f"receiver {y} of group {group} needs {alpha} packets in "
                            f"round {g}, but {len(senders)} transmitters x "
                            f"{repeat_count} repeats carry {len(senders) * repeat_count}"
                        )
                    support = group[:i] + group[i + 1 :]
                    n = demands[y - 1]
                    order = _shuffled_indices(alpha, _bijection_key(group_prefix, y))
                    base = index[(support, g, 1)] - 1
                    receivers.append((y, n, support, store.file_values(n), base, order, senders))
                for x in transmitters:
                    carried = []
                    for y, n, support, values, base, order, senders in receivers:
                        if y != x:
                            start = senders.index(x) * repeat_count
                            carried.append(
                                (n, support, values, base, order[start : start + repeat_count])
                            )
                    for r in range(repeat_count):
                        payload = 0
                        constituents = []
                        for n, support, values, base, indices in carried:
                            j = indices[r]
                            payload ^= values[base + j]
                            constituents.append((n, support, g, j))
                        messages.append(
                            CodedMessage(
                                g,
                                group,
                                x,
                                r + 1,
                                payload.to_bytes(size_bytes, "big"),
                                tuple(constituents),
                            )
                        )
    return messages


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
    """Decode the users of ``caches`` in one pass over the messages.

    Every message is checked, whoever is decoded.  Each constituent must be
    lacked by exactly one group member, its owner, who is not the
    transmitter and caches every other constituent; otherwise, or when the
    owner is not a user 1..K or the packet id is not in the layout,
    ``UndecodableMessage`` is raised.  With that checked, the owner's XOR of
    the other constituents uses only its cache, so with ``total`` the payload
    XOR-ed with every constituent, constituent i decodes to ``total ^ v_i``.
    A constituent outside its owner's demand raises ``UndemandedPacket``, one
    decoded twice ``DuplicateDelivery``.  Each decoded user's file is its
    cached packets plus the decoded ones, written at their byte offsets; a
    packet never decoded raises ``MissingPacket``.  Returns the files by
    ``cache.user``.
    """
    if not caches:
        raise ValueError("no caches")
    store = caches[0].store
    index = store.index
    template = store.template
    offsets = store.offsets
    file_values = store.file_values
    # Each decoded user's file, filled from its cache here and from the
    # messages below, and a flag per flat position that it holds.
    files: dict[int, bytearray] = {}
    held: dict[int, bytearray] = {}
    for cache in caches:
        user = cache.user
        raw = store.file_bytes(demands[user - 1])
        files[user] = buf = bytearray(len(raw))
        held[user] = flags = bytearray(len(template))
        for pos, (support, _, _, size) in enumerate(template):
            if user in support:
                o = offsets[pos]
                buf[o : o + size] = raw[o : o + size]
                flags[pos] = 1
    for msg in messages:
        members = set(msg.group)
        total = int.from_bytes(msg.payload, "big")
        unknowns = []
        for pid in msg.constituents:
            n, support, g, j = pid
            lacking = members.difference(support)
            if len(lacking) != 1:
                raise UndecodableMessage(
                    f"{len(lacking)} members of group {msg.group} lack {pid}, expected 1"
                )
            (owner,) = lacking
            if owner == msg.transmitter:
                raise UndecodableMessage(f"transmitter {owner} does not cache {pid}")
            if not 1 <= owner <= len(demands):
                raise UndecodableMessage(
                    f"owner {owner} of {pid} is not a user 1..{len(demands)}"
                )
            if n != demands[owner - 1]:
                raise UndemandedPacket(f"user {owner} decoded {pid} outside its demand")
            pos = index.get((support, g, j))
            if pos is None:
                raise UndecodableMessage(f"{pid} is not a packet of the layout")
            value = file_values(n)[pos]
            total ^= value
            unknowns.append((owner, pos, value))
        # Each owner lacks only its own constituent, so it caches all the
        # others exactly when no two constituents share an owner.
        if len({owner for owner, _, _ in unknowns}) != len(unknowns):
            raise UndecodableMessage(
                f"a member of group {msg.group} lacks two constituents of one message"
            )
        for owner, pos, value in unknowns:
            flags = held.get(owner)
            if flags is None:
                continue
            support, g, j, size = template[pos]
            if flags[pos]:
                raise DuplicateDelivery(
                    f"user {owner} decoded {(demands[owner - 1], support, g, j)} twice"
                )
            flags[pos] = 1
            o = offsets[pos]
            files[owner][o : o + size] = (total ^ value).to_bytes(size, "big")
    out = {}
    for user, flags in held.items():
        if 0 in flags:
            support, g, j, _ = template[flags.index(0)]
            raise MissingPacket(f"user {user} never decoded {(demands[user - 1], support, g, j)}")
        out[user] = bytes(files.pop(user))
    return out


_LINE = (
    '{"round":%d,"group":[%s],"transmitter":%d,"repeat":%d,'
    '"constituents":[%s],"payload_sha256":"%s"}'
)
_CONSTITUENT = '{"file":%d,"support":[%s],"coupled_group":%d,"index":%d}'


def transcript_lines(messages: Iterable[CodedMessage]) -> Iterator[str]:
    """JSON-lines transcript: one record per message, payloads as hashes.

    Each line is the compact ``json.dumps`` of ``{"round", "group",
    "transmitter", "repeat", "constituents": [{"file", "support",
    "coupled_group", "index"}, ...], "payload_sha256"}``, built by formatting.
    """
    support_text: dict[tuple[int, ...], str] = {}
    for m in messages:
        parts = []
        for n, support, g, j in m.constituents:
            text = support_text.get(support)
            if text is None:
                text = support_text[support] = ",".join(map(str, support))
            parts.append(_CONSTITUENT % (n, text, g, j))
        yield _LINE % (
            m.round,
            ",".join(map(str, m.group)),
            m.transmitter,
            m.repeat,
            ",".join(parts),
            hashlib.sha256(m.payload).hexdigest(),
        )


def write_transcript(messages: Iterable[CodedMessage], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in transcript_lines(messages):
            fh.write(line + "\n")
