"""Blueprints and static algebra of packet-type (PT) caching schemes.

A scheme is described by system parameters, a user grouping, and one
transmitter selection per coupled group.  From that blueprint this module
derives everything static: subfile/multicast-group types, local and
intermediate further-splitting (FS) vectors, the aggregate FS vector,
subfile-count vectors, the exact packet-size ratios solving the memory
constraint, and integer packet sizes.

Conventions
-----------
* Users are 1..K, assigned contiguously to groups: the first group gets
  1..q1, the second q1+1..q1+q2, and so on.
* A type is the component-indexed vector of projection sizes onto the
  groups, e.g. (1, 1) for a 2-subset meeting both groups once.  Two-group
  layouts require q1 > q2 so that the components stay distinguishable.
* Transmitter selections name the daggered components by 0-based index.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

TypeVec = tuple[int, ...]


class UnsupportedGrouping(ValueError):
    """Grouping shape outside the supported one- and two-group layouts."""


class EmptySelection(ValueError):
    """A transmitter selection with no daggered component."""


class IncompatibleLocals(ValueError):
    """Local FS factors that cannot be merged into a deliverable vector."""


class LengthMismatch(ValueError):
    """Vectors of different lengths cannot be combined."""


class DegenerateSystem(ValueError):
    """The memory-constraint system does not pin the packet-size ratios."""


class InvalidRatio(ValueError):
    """A solved packet-size ratio is not strictly positive."""


class PresetConstraintViolated(ValueError):
    """Preset parameter constraint failed; the message names the inequality."""


@dataclass(frozen=True)
class SystemParams:
    """Global system parameters: K users, N files, aggregate cache size t.

    ``t = K*M/N`` must be a positive integer; ``unit`` is the byte width of
    one abstract packet-size unit.
    """

    K: int
    t: int
    N: int
    unit: int = 1

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.K < self.t + 1:
            raise ValueError(f"K must be >= t+1, got K={self.K}, t={self.t}")
        if self.N < self.K:
            raise ValueError(f"N must be >= K, got N={self.N}, K={self.K}")
        if self.unit < 1:
            raise ValueError(f"unit must be >= 1, got {self.unit}")

    @property
    def rate(self) -> Fraction:
        """Optimal one-shot delivery rate (K-t)/t."""
        return Fraction(self.K - self.t, self.t)


@dataclass(frozen=True)
class UserGrouping:
    """Partition of users 1..K into groups of non-increasing sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise UnsupportedGrouping(f"group sizes must be positive, got {self.sizes}")
        if any(a < b for a, b in zip(self.sizes, self.sizes[1:])):
            raise UnsupportedGrouping(f"group sizes must be non-increasing, got {self.sizes}")

    @property
    def K(self) -> int:
        return sum(self.sizes)

    @property
    def m(self) -> int:
        return len(self.sizes)

    def members(self, i: int) -> tuple[int, ...]:
        """User ids of group i (0-based), contiguous ascending."""
        start = 1 + sum(self.sizes[:i])
        return tuple(range(start, start + self.sizes[i]))

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.members(i) for i in range(self.m))


@dataclass(frozen=True)
class TransmitterSelection:
    """Dagger sets, one per multicast-group type, in layout order.

    ``daggers[k]`` holds the 0-based component indices of group type k whose
    users transmit.
    """

    daggers: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, daggers: Iterable[Iterable[int]]) -> "TransmitterSelection":
        return cls(tuple(frozenset(d) for d in daggers))


@dataclass(frozen=True)
class SchemeSpec:
    """Full blueprint of one PT scheme: parameters, grouping, per-coupled-group plans."""

    params: SystemParams
    grouping: UserGrouping
    plans: tuple[TransmitterSelection, ...]

    def __post_init__(self) -> None:
        if self.grouping.K != self.params.K:
            raise ValueError(
                f"grouping sums to {self.grouping.K}, expected K={self.params.K}"
            )
        if not self.plans:
            raise ValueError("need at least one coupled group")


@dataclass(frozen=True)
class TypeLayout:
    """Subfile and multicast-group types of a grouping, with involvement maps.

    ``involved[k]`` lists, for group type k, pairs ``(component, ti)``:
    receivers in that component miss subfiles of type ``subfile_types[ti]``.
    """

    subfile_types: tuple[TypeVec, ...]
    group_types: tuple[TypeVec, ...]
    involved: tuple[tuple[tuple[int, int], ...], ...]


def _two_group_sizes(sizes: tuple[int, ...], t: int) -> tuple[int, ...]:
    """``sizes`` if they make a supported layout at cache size t: one group with K > t >= 1,
    or two with q1 > q2 >= t >= 1.  Else the named error of the first check they fail:
    ``SystemParams``' and ``UserGrouping``'s, then UnsupportedGrouping for the layout."""
    if len(sizes) == 2 and sizes[0] > sizes[1] >= t >= 1 or len(sizes) == 1 and sizes[0] > t >= 1:
        return sizes  # the accept path: one comparison chain, no parameter object
    SystemParams(K=sum(sizes), t=t, N=sum(sizes))
    UserGrouping(sizes)
    if len(sizes) > 2:
        raise UnsupportedGrouping(f"{len(sizes)}-group layouts are not supported")
    if sizes[0] == sizes[1]:
        raise UnsupportedGrouping("equal two-group layouts collapse type components; use one group")
    raise UnsupportedGrouping(
        f"second group of size {sizes[1]} cannot host type (0,{t}); need q2 >= t"
    )


@functools.cache
def _compositions(n: int, m: int) -> tuple[TypeVec, ...]:
    """The m-entry vectors of non-negative integers summing to n, in lexicographic order."""
    return tuple(v for v in itertools.product(range(n + 1), repeat=m) if sum(v) == n)


def derive_types(params: SystemParams, grouping: UserGrouping) -> TypeLayout:
    """Types, group types, and involved sets for the supported layouts.

    The subfile types are the m-entry compositions of t and the group types
    those of t+1, both in lexicographic order (one rule for every layout).
    One group gives the single subfile type (t,) and group type (t+1,); two
    unequal groups with q2 >= t the chains v_k = (k-1, t-k+1), k = 1..t+1,
    and s_k = (k-1, t-k+2), k = 1..t+2.  Group types with no instances at
    small q2 are kept as formal rows (they contribute no transmissions).
    """
    t = params.t
    m = len(_two_group_sizes(grouping.sizes, t))
    subfile_types = _compositions(t, m)
    group_types = _compositions(t + 1, m)
    involved = []
    for s in group_types:
        rows = []
        for comp, sc in enumerate(s):
            if sc > 0:
                v = tuple(x - (1 if i == comp else 0) for i, x in enumerate(s))
                rows.append((comp, subfile_types.index(v)))
        involved.append(tuple(rows))
    return TypeLayout(subfile_types, group_types, tuple(involved))


def selections(layout: TypeLayout) -> Iterator[TransmitterSelection]:
    """Every selection: per group type, each non-empty set of its occupied components."""
    occupied = ([i for i, c in enumerate(s) if c > 0] for s in layout.group_types)
    choices = [[frozenset(c) for n in range(1, len(o) + 1) for c in itertools.combinations(o, n)]
               for o in occupied]
    return map(TransmitterSelection, itertools.product(*choices))


def local_fs(s: TypeVec, daggers: frozenset[int]) -> dict[int, int]:
    """Local FS factor per involved component of one group type.

    Every receiver sees all transmitters except itself, so the factor is the
    number of daggered users minus one on daggered components.
    """
    if not daggers:
        raise EmptySelection(f"no transmitters selected for type {s}")
    for d in daggers:
        if not 0 <= d < len(s) or s[d] == 0:
            raise EmptySelection(f"dagger on empty component {d} of type {s}")
    total = sum(s[d] for d in daggers)
    return {i: total - 1 if i in daggers else total for i, si in enumerate(s) if si > 0}


def fs_and_repeats(
    plan: TransmitterSelection, layout: TypeLayout
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Intermediate FS vector of one coupled group, validated for delivery, and its repeats.

    Entries are the LCM of the contributing local factors, of which there
    is always one (type v is involved in group type v + e0); under
    ``math.lcm``'s rule lcm(0, x) = 0, a zero local excludes the type.  A
    group type's repeat count is how often each of its transmitters sends:
    entry // local factor on every involved type that is not excluded.  Raises IncompatibleLocals when these disagree
    across its sides, so the merge is not deliverable.  0 marks a group type
    whose involved types are all excluded, so its transmissions are omitted.

    A zero local (a lone daggered user: (1, t) daggered {0} or (t, 1)
    daggered {1}) excludes only an end type, (0, t) or (t, 0), whose one
    other group type, (0, t+1) or (t+1, 0), has no other side to deliver.
    """
    if len(plan.daggers) != len(layout.group_types):
        raise LengthMismatch(
            f"plan covers {len(plan.daggers)} group types, layout has {len(layout.group_types)}"
        )
    per_type: list[dict[int, int]] = [{} for _ in layout.subfile_types]  # [type][group type]
    for k, s in enumerate(layout.group_types):
        factors = local_fs(s, plan.daggers[k])
        for comp, ti in layout.involved[k]:
            per_type[ti][k] = factors[comp]
    entries = [math.lcm(*d.values()) for d in per_type]
    repeats = []
    for k, involved in enumerate(layout.involved):
        counts = {entries[ti] // per_type[ti][k] for _, ti in involved if entries[ti] > 0}
        if len(counts) > 1:
            raise IncompatibleLocals(
                f"group type {layout.group_types[k]} needs conflicting repeat "
                f"counts {sorted(counts)} across its sides"
            )
        repeats.append(counts.pop() if counts else 0)
    return tuple(entries), tuple(repeats)


@dataclass(frozen=True)
class FsVectors:
    """Per-coupled-group intermediate FS vectors and their entrywise sum, the aggregate.
    Unchecked: ``derive`` builds one per plan, all on one layout, from lcms of factors >= 0."""

    intermediate: tuple[tuple[int, ...], ...]
    aggregate: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregate", tuple(map(sum, zip(*self.intermediate))))


@dataclass(frozen=True)
class CountVectors:
    """Subfile counts per type, per-unique-set user cache counts, and differences."""

    F: tuple[int, ...]
    per_set: tuple[tuple[int, ...], ...]
    deltas: tuple[tuple[int, ...], ...]


def count_vectors(t: int, sizes: tuple[int, ...]) -> CountVectors:
    """Subfile-count and user-cache vectors of the group sizes at cache size t, from one formula.

    Type v has F(v) = prod_i C(q_i, v_i) subfiles; a group-i user caches
    F(v) v_i / q_i of them, exactly (C(n-1,j-1) = C(n,j) j/n); each Delta is a
    group's vector minus the one before.  So one group has F = (C(K,t),), the
    cache count C(K-1,t-1) and no Delta; two have F(v_k) = C(q1,k-1)C(q2,t-k+1)
    and cache counts C(q1-1,k-2)C(q2,t-k+1) and C(q1,k-1)C(q2-1,t-k).  Takes t and the
    sizes, not ``SystemParams`` and ``UserGrouping``: the analytic sweeps call this once
    per (t, q), and ``_two_group_sizes`` builds those only to name a rejection.
    """
    types = _compositions(t, len(_two_group_sizes(sizes, t)))
    # List comprehensions, not generators: ``verify.verify_claims`` calls this once per (t, q).
    F = tuple([math.prod(map(math.comb, sizes, v)) for v in types])
    per_set = tuple([tuple([f * v[i] // q for f, v in zip(F, types)]) for i, q in enumerate(sizes)])
    deltas = tuple([tuple(map(operator.sub, b, a)) for a, b in zip(per_set, per_set[1:])])
    return CountVectors(F=F, per_set=per_set, deltas=deltas)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise LengthMismatch(f"dot product of lengths {len(a)} and {len(b)}")
    return sum(map(operator.mul, a, b))


def memory_terms(vectors: Sequence[Sequence[int]], delta: Sequence[int]) -> list[int]:
    """Each FS vector's memory term v . Delta: for v = alpha^(g), the terms of the memory
    constraint sum_g gamma_g * (alpha^(g) . Delta) = 0 of a two-group layout's one Delta."""
    return [_dot(v, delta) for v in vectors]


_ONE = Fraction(1)  # gamma_1, one shared object: a Fraction is immutable


def solve_packet_ratio(fs: FsVectors, counts: CountVectors) -> tuple[Fraction, ...]:
    """Packet-size ratios (gamma_1=1, gamma_2, ...) solving the memory constraint.

    The constraint is one linear equation per adjacent unique-set pair:
    sum_g gamma_g * (alpha^(g) . Delta_i) = 0.  Supported layouts have at
    most one pair, so the system is solvable only as G=1 with no equation,
    G=1 whose one memory term is 0 (one packet size holds it), or G=2 with
    one equation, solved by ``second_ratio``; the ratio must be strictly positive.
    """
    G = len(fs.intermediate)
    n_eq = len(counts.deltas)
    if (G, n_eq) not in ((1, 0), (1, 1), (2, 1)):
        raise DegenerateSystem(
            f"{n_eq} memory equations for {G - 1} free ratios; "
            "only G=1 with at most one or G=2 with one is solvable"
        )
    if n_eq == 0:
        return (_ONE,)
    terms = memory_terms(fs.intermediate, counts.deltas[0])
    if G == 2:
        return (_ONE, second_ratio(*terms))
    if terms[0] != 0:
        raise DegenerateSystem(
            f"1 memory equations for 0 free ratios: the one coupled group's term is {terms[0]}, not 0"
        )
    return (_ONE,)


def second_ratio(a1: int, a2: int) -> Fraction:
    """gamma_2 = -a1/a2, solving two coupled groups' one memory equation a1 + gamma_2 * a2 = 0
    from its terms (``memory_terms``); a2 = 0 pins nothing, and gamma_2 must be positive."""
    if a2 == 0:
        raise DegenerateSystem("second coupled group has zero memory leverage")
    if a1 * a2 >= 0:  # the sign of gamma = -a1/a2, read on the integers
        raise InvalidRatio(f"packet size ratio {Fraction(-a1, a2)} is not positive")
    return Fraction(-a1, a2)


@dataclass(frozen=True)
class PacketSizing:
    """Integer per-coupled-group packet sizes, file length (units), and the ratios
    ``gamma`` (ell_g/ell_1) that the sizes realise: the solved ratios by construction,
    so every size is positive (``solve_packet_ratio`` returns only a positive gamma)."""

    gamma: tuple[Fraction, ...] = field(init=False)
    ell: tuple[int, ...]
    L: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(Fraction(e, self.ell[0]) for e in self.ell))


def integer_packet_sizes(
    gammas: Sequence[Fraction], fs: FsVectors, counts: CountVectors
) -> PacketSizing:
    """Smallest integer packet sizes realizing the ratios, and the file length.

    ell_1 is the lcm of the ratio denominators, ell_g = gamma_g * ell_1, and
    L = sum_g (alpha^(g) . F) * ell_g, all exact integers in units.
    """
    ell1 = math.lcm(*(g.denominator for g in gammas))
    ell = tuple(int(g * ell1) for g in gammas)
    L = sum(_dot(v, counts.F) * e for v, e in zip(fs.intermediate, ell))
    return PacketSizing(ell=ell, L=L)


@dataclass(frozen=True)
class DerivedScheme:
    """A scheme blueprint with all of its static algebra computed."""

    spec: SchemeSpec
    layout: TypeLayout
    fs: FsVectors
    counts: CountVectors
    sizing: PacketSizing
    repeats: tuple[tuple[int, ...], ...]
    """Per coupled group, per group type: message repeats per transmitter (0 = omitted)."""

    @property
    def params(self) -> SystemParams:
        return self.spec.params

    @property
    def grouping(self) -> UserGrouping:
        return self.spec.grouping

    @property
    def packets_per_file(self) -> int:
        """Subpacketization level: aggregate FS vector dotted with the counts."""
        return _dot(self.fs.aggregate, self.counts.F)

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "params": {"K": p.K, "t": p.t, "N": p.N, "unit": p.unit},
            "grouping": {
                "sizes": list(self.grouping.sizes),
                "groups": [list(g) for g in self.grouping.groups],
            },
            "plans": [
                {
                    "coupled_group": g + 1,
                    "daggers": [sorted(d) for d in plan.daggers],
                }
                for g, plan in enumerate(self.spec.plans)
            ],
            "types": {
                "subfile": [list(v) for v in self.layout.subfile_types],
                "group": [list(s) for s in self.layout.group_types],
            },
            "fs": {
                "intermediate": [list(v) for v in self.fs.intermediate],
                "aggregate": list(self.fs.aggregate),
            },
            "counts": {
                "F": list(self.counts.F),
                "per_set": [list(v) for v in self.counts.per_set],
                "delta": [list(v) for v in self.counts.deltas],
            },
            "sizing": {
                "gamma": [frac_str(g) for g in self.sizing.gamma],
                "ell": list(self.sizing.ell),
                "L": self.sizing.L,
            },
            "F_PT": self.packets_per_file,
            "rate": frac_str(self.params.rate),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def derive(spec: SchemeSpec) -> DerivedScheme:
    """Run the full static pipeline: types, FS vectors, ratios, sizes.

    No memory residual is checked: the solved gamma = -a1/a2 zeroes it
    exactly (G = 1 has no equation), and the ``DeliverySchedule`` recounts
    each user's cached units.
    """
    layout = derive_types(spec.params, spec.grouping)
    intermediates, repeats = zip(*(fs_and_repeats(plan, layout) for plan in spec.plans))
    fs = FsVectors(intermediate=intermediates)
    counts = count_vectors(spec.params.t, spec.grouping.sizes)
    gammas = solve_packet_ratio(fs, counts)
    sizing = integer_packet_sizes(gammas, fs, counts)
    return DerivedScheme(
        spec=spec, layout=layout, fs=fs, counts=counts, sizing=sizing, repeats=repeats
    )


def _hill_daggers(t: int, r: int) -> list[set[int]]:
    """A coupled group's selection: transmitters switch sides after the pivot r.
    Pivot t is the staircase: the first group transmits in every type but (0, t+1)."""
    daggers: list[set[int]] = [{1}]
    daggers += [{0} for k in range(2, r + 2)]
    daggers += [{1} for k in range(r + 2, t + 2)]
    daggers += [{0}]
    return daggers


def preset(name: str, params: SystemParams) -> SchemeSpec:
    """Named scheme constructions: a grouping plus two hill pivots, or one group.

    theorem1: odd K = 2q+1, even t = 2r, q >= t+1; grouping (q+1, q), pivots
      (t, r): the staircase and the hill of the paper's Theorem 1.
    odd_t3:   odd K = 2q+1, t = 3, q >= 4; same grouping, pivots (2, 1)
      straddling the center (aggregate (0, 3, 3, 0)).
    even_K:   even K = 2q, even t = 2r, q >= 2r+1; grouping (q+1, q-1), pivots
      (t, r) (validity is checked per instance when deriving).
    jcm:      any K > t; single group, everyone transmits, uniform factor t.
    """
    K, t = params.K, params.t
    if name == "jcm":
        grouping = UserGrouping((K,))
        plan = TransmitterSelection.from_lists([{0}])
        return SchemeSpec(params, grouping, (plan,))
    if name == "theorem1":
        if K % 2 == 0:
            raise PresetConstraintViolated("K must be odd (K = 2q+1)")
        if t % 2 == 1:
            raise PresetConstraintViolated("t must be even (t = 2r)")
        q, pivots = (K - 1) // 2, (t, t // 2)
        if q < t + 1:
            raise PresetConstraintViolated(f"need q >= t+1, got q={q}, t={t}")
        grouping = UserGrouping((q + 1, q))
    elif name == "odd_t3":
        if t != 3:
            raise PresetConstraintViolated(f"preset is for t = 3, got t={t}")
        if K % 2 == 0:
            raise PresetConstraintViolated("K must be odd (K = 2q+1)")
        q, pivots = (K - 1) // 2, (2, 1)
        if q < 4:
            raise PresetConstraintViolated(f"need q >= 4, got q={q}")
        grouping = UserGrouping((q + 1, q))
    elif name == "even_K":
        if K % 2 == 1:
            raise PresetConstraintViolated("K must be even (K = 2q)")
        if t % 2 == 1:
            raise PresetConstraintViolated("t must be even (t = 2r)")
        q, pivots = K // 2, (t, t // 2)
        if q < t + 1:
            raise PresetConstraintViolated(f"need q >= 2r+1, got q={q}, t={t}")
        grouping = UserGrouping((q + 1, q - 1))
    else:
        raise PresetConstraintViolated(f"unknown preset {name!r}")
    plans = tuple(TransmitterSelection.from_lists(_hill_daggers(t, r)) for r in pivots)
    return SchemeSpec(params, grouping, plans)
