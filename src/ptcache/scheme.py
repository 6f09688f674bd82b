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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .combinatorics import binom, count_subsets_of_type, vector_lcm

TypeVec = tuple[int, ...]


class UnsupportedGrouping(ValueError):
    """Grouping shape outside the supported one- and two-group layouts."""


class EmptySelection(ValueError):
    """A transmitter selection with no daggered component."""


class IncompatibleLocals(ValueError):
    """Local FS factors that cannot be merged into a deliverable vector."""


class LengthMismatch(ValueError):
    """FS vectors of different lengths cannot be aggregated."""


class DegenerateSystem(ValueError):
    """The memory-constraint system does not pin the packet-size ratios."""


class InvalidRatio(ValueError):
    """A solved packet-size ratio is not strictly positive."""


class CountMismatch(ValueError):
    """Closed-form subfile counts disagree with direct subset enumeration."""


class NonzeroResidual(ValueError):
    """Solved packet-size ratios leave a memory-constraint residual."""


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

    @property
    def n_distinct(self) -> int:
        """Number of distinct group sizes (unique sets)."""
        return len(set(self.sizes))

    def members(self, i: int) -> tuple[int, ...]:
        """User ids of group i (0-based), contiguous ascending."""
        start = 1 + sum(self.sizes[:i])
        return tuple(range(start, start + self.sizes[i]))

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.members(i) for i in range(self.m))

    def group_of(self, user: int) -> int:
        if not 1 <= user <= self.K:
            raise ValueError(f"user {user} outside 1..{self.K}")
        acc = 0
        for i, s in enumerate(self.sizes):
            acc += s
            if user <= acc:
                return i
        raise AssertionError("unreachable")

    def assignment(self) -> dict[int, int]:
        """user id -> group index, for serialization."""
        return {u: i for i in range(self.m) for u in self.members(i)}


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
        # Feasibility: the size-ratio system has one equation per adjacent
        # unique-set pair, so it needs at least N_d coupled groups.
        if len(self.plans) < self.grouping.n_distinct:
            raise ValueError(
                f"G={len(self.plans)} coupled groups cannot satisfy "
                f"{self.grouping.n_distinct} unique sets (need G >= N_d)"
            )

    @property
    def G(self) -> int:
        return len(self.plans)


@dataclass(frozen=True)
class TypeLayout:
    """Subfile and multicast-group types of a grouping, with involvement maps.

    ``involved[k]`` lists, for group type k, pairs ``(component, type_index)``:
    receivers in that component miss subfiles of that type.
    """

    subfile_types: tuple[TypeVec, ...]
    group_types: tuple[TypeVec, ...]
    involved: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def V(self) -> int:
        return len(self.subfile_types)

    def type_index(self, v: TypeVec) -> int:
        return self.subfile_types.index(v)

    def involved_types(self, k: int) -> tuple[int, ...]:
        return tuple(ti for _, ti in self.involved[k])


def derive_types(params: SystemParams, grouping: UserGrouping) -> TypeLayout:
    """Types, group types, and involved sets for the supported layouts.

    One group: the single subfile type (t,) and group type (t+1,).  Two
    unequal groups with q2 >= t: the chain v_k = (k-1, t-k+1) and
    s_k = (k-1, t-k+2); group types with no instances at small q2 are kept
    as formal rows (they contribute no transmissions).
    """
    t = params.t
    if grouping.m == 1:
        return TypeLayout(
            subfile_types=((t,),),
            group_types=((t + 1,),),
            involved=(((0, 0),),),
        )
    if grouping.m != 2:
        raise UnsupportedGrouping(f"{grouping.m}-group layouts are not supported")
    q1, q2 = grouping.sizes
    if q1 == q2:
        raise UnsupportedGrouping(
            "equal two-group layouts collapse type components; use one group"
        )
    if q2 < t:
        raise UnsupportedGrouping(
            f"second group of size {q2} cannot host type (0,{t}); need q2 >= t"
        )
    subfile_types = tuple((k - 1, t - k + 1) for k in range(1, t + 2))
    group_types = tuple((k - 1, t - k + 2) for k in range(1, t + 3))
    involved = []
    for s in group_types:
        rows = []
        for comp, sc in enumerate(s):
            if sc > 0:
                v = tuple(x - (1 if i == comp else 0) for i, x in enumerate(s))
                rows.append((comp, subfile_types.index(v)))
        involved.append(tuple(rows))
    return TypeLayout(subfile_types, group_types, tuple(involved))


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


def _locals_by_type(plan: TransmitterSelection, layout: TypeLayout) -> list[dict[int, int]]:
    """For each subfile type, the factors contributed per group type."""
    if len(plan.daggers) != len(layout.group_types):
        raise LengthMismatch(
            f"plan covers {len(plan.daggers)} group types, layout has {len(layout.group_types)}"
        )
    per_type: list[dict[int, int]] = [{} for _ in layout.subfile_types]
    for k, s in enumerate(layout.group_types):
        factors = local_fs(s, plan.daggers[k])
        for comp, ti in layout.involved[k]:
            per_type[ti][k] = factors[comp]
    return per_type


def raw_fs_vector(plan: TransmitterSelection, layout: TypeLayout) -> tuple[int, ...]:
    """Vector-LCM merge of local factors, without deliverability checks.

    Used for exhaustive strategy enumeration where infeasible merges are
    part of the search space.
    """
    return tuple(vector_lcm(list(d.values())) for d in _locals_by_type(plan, layout))


def intermediate_fs(plan: TransmitterSelection, layout: TypeLayout) -> tuple[int, ...]:
    """Intermediate FS vector of one coupled group, validated for delivery.

    Entries are the vector-LCM of the contributing local factors (a zero
    local excludes the type).  Raises IncompatibleLocals when the merge is
    not deliverable: a nonzero local survives for an excluded type outside
    the omitted-group-type pattern, or one group type would need different
    repeat counts for its two sides.
    """
    per_type = _locals_by_type(plan, layout)
    entries = [vector_lcm(list(d.values())) for d in per_type]
    for ti, contributions in enumerate(per_type):
        if entries[ti] == 0 and any(f > 0 for f in contributions.values()):
            for k, f in contributions.items():
                if f > 0 and any(entries[tj] > 0 for tj in layout.involved_types(k)):
                    raise IncompatibleLocals(
                        f"type {layout.subfile_types[ti]} is excluded by a zero local "
                        f"but group type {layout.group_types[k]} still delivers it"
                    )
    for k in range(len(layout.group_types)):
        repeats = {
            entries[ti] // per_type[ti][k]
            for ti in layout.involved_types(k)
            if entries[ti] > 0
        }
        if len(repeats) > 1:
            raise IncompatibleLocals(
                f"group type {layout.group_types[k]} needs conflicting repeat "
                f"counts {sorted(repeats)} across its sides"
            )
    return tuple(entries)


def aggregate_fs(intermediates: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Entrywise sum of the intermediate FS vectors."""
    if not intermediates:
        raise LengthMismatch("no intermediate vectors")
    length = len(intermediates[0])
    if any(len(v) != length for v in intermediates):
        raise LengthMismatch(f"mixed lengths {[len(v) for v in intermediates]}")
    return tuple(sum(col) for col in zip(*intermediates))


@dataclass(frozen=True)
class FsVectors:
    """Per-coupled-group intermediate FS vectors and their aggregate."""

    intermediate: tuple[tuple[int, ...], ...]
    aggregate: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.aggregate != aggregate_fs(self.intermediate):
            raise ValueError("aggregate is not the entrywise sum of the intermediates")
        if any(e < 0 for v in self.intermediate for e in v):
            raise ValueError("FS entries must be non-negative")


@dataclass(frozen=True)
class CountVectors:
    """Subfile counts per type, per-unique-set user cache counts, and differences."""

    F: tuple[int, ...]
    per_set: tuple[tuple[int, ...], ...]
    deltas: tuple[tuple[int, ...], ...]


def count_vectors(params: SystemParams, grouping: UserGrouping) -> CountVectors:
    """Subfile-count and user-cache vectors of the layout.

    Two-group layout: F(v_k) = C(q1,k-1)C(q2,t-k+1), a user in the first
    group caches C(q1-1,k-2)C(q2,t-k+1) of them, one in the second
    C(q1,k-1)C(q2-1,t-k).
    """
    t = params.t
    if grouping.m == 1:
        return CountVectors(
            F=(binom(params.K, t),),
            per_set=((binom(params.K - 1, t - 1),),),
            deltas=(),
        )
    layout = derive_types(params, grouping)
    q1, q2 = grouping.sizes
    F = tuple(binom(q1, k - 1) * binom(q2, t - k + 1) for k in range(1, t + 2))
    F1 = tuple(binom(q1 - 1, k - 2) * binom(q2, t - k + 1) for k in range(1, t + 2))
    F2 = tuple(binom(q1, k - 1) * binom(q2 - 1, t - k) for k in range(1, t + 2))
    enumerated = tuple(count_subsets_of_type(grouping.sizes, v) for v in layout.subfile_types)
    if F != enumerated:
        raise CountMismatch(f"closed-form subfile counts {F}, enumerated {enumerated}")
    delta = tuple(b - a for a, b in zip(F1, F2))
    return CountVectors(F=F, per_set=(F1, F2), deltas=(delta,))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def memory_residuals(
    gammas: Sequence[Fraction], fs: FsVectors, counts: CountVectors
) -> tuple[Fraction, ...]:
    """Exact residual sum_g gamma_g * (alpha^(g) . Delta_i) for each unique-set pair."""
    return tuple(
        sum((g * _dot(v, delta) for g, v in zip(gammas, fs.intermediate)), Fraction(0))
        for delta in counts.deltas
    )


def solve_packet_ratio(fs: FsVectors, counts: CountVectors) -> tuple[Fraction, ...]:
    """Packet-size ratios (gamma_1=1, gamma_2, ...) solving the memory constraint.

    The constraint is one linear equation per adjacent unique-set pair:
    sum_g gamma_g * (alpha^(g) . Delta_i) = 0.  Supported layouts have at
    most one pair, so the system is solvable only as G=1 with no equation or
    G=2 with one, each in closed form; the ratio must be strictly positive.
    """
    G = len(fs.intermediate)
    n_eq = len(counts.deltas)
    if (G, n_eq) not in ((1, 0), (2, 1)):
        raise DegenerateSystem(
            f"{n_eq} memory equations for {G - 1} free ratios; "
            "only G=1 with none or G=2 with one is solvable"
        )
    if G == 1:
        return (Fraction(1),)
    a1 = _dot(fs.intermediate[0], counts.deltas[0])
    a2 = _dot(fs.intermediate[1], counts.deltas[0])
    if a2 == 0:
        raise DegenerateSystem("second coupled group has zero memory leverage")
    gamma = Fraction(-a1, a2)
    if gamma <= 0:
        raise InvalidRatio(f"packet size ratio {gamma} is not positive")
    return (Fraction(1), gamma)


@dataclass(frozen=True)
class PacketSizing:
    """Exact ratios, integer per-coupled-group packet sizes, and file length (units)."""

    gamma: tuple[Fraction, ...]
    ell: tuple[int, ...]
    L: int

    def __post_init__(self) -> None:
        if any(e <= 0 for e in self.ell):
            raise ValueError(f"packet sizes must be positive, got {self.ell}")
        if any(Fraction(e, self.ell[0]) != g for e, g in zip(self.ell, self.gamma)):
            raise ValueError("packet sizes do not realize the exact ratios")


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
    return PacketSizing(gamma=tuple(Fraction(g) for g in gammas), ell=ell, L=L)


@dataclass(frozen=True)
class DerivedScheme:
    """A scheme blueprint with all of its static algebra materialized."""

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
    def gamma(self) -> tuple[Fraction, ...]:
        return self.sizing.gamma

    @property
    def packets_per_file(self) -> int:
        """Subpacketization level: aggregate FS vector dotted with the counts."""
        return _dot(self.fs.aggregate, self.counts.F)

    @property
    def rate(self) -> Fraction:
        return self.params.rate

    def packet_size(self, g: int) -> int:
        """Units of one coupled-group-g packet (1-based g)."""
        return self.sizing.ell[g - 1]

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
            "rate": frac_str(self.rate),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _message_repeats(
    layout: TypeLayout,
    plans: Sequence[TransmitterSelection],
    intermediates: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """Per (coupled group, group type): how often each transmitter repeats.

    0 marks a group type whose involved types are all excluded in that
    coupled group, so its transmissions are omitted.  Uniformity across the
    sides of a group type was already enforced by intermediate_fs.
    """
    out = []
    for plan, entries in zip(plans, intermediates):
        per_type = _locals_by_type(plan, layout)
        row = []
        for k in range(len(layout.group_types)):
            repeats = {
                entries[ti] // per_type[ti][k]
                for ti in layout.involved_types(k)
                if entries[ti] > 0
            }
            row.append(repeats.pop() if repeats else 0)
        out.append(tuple(row))
    return tuple(out)


def derive(spec: SchemeSpec) -> DerivedScheme:
    """Run the full static pipeline: types, FS vectors, ratios, sizes."""
    layout = derive_types(spec.params, spec.grouping)
    intermediates = tuple(intermediate_fs(plan, layout) for plan in spec.plans)
    fs = FsVectors(intermediate=intermediates, aggregate=aggregate_fs(intermediates))
    counts = count_vectors(spec.params, spec.grouping)
    gammas = solve_packet_ratio(fs, counts)
    residuals = memory_residuals(gammas, fs, counts)
    if any(residuals):
        raise NonzeroResidual(f"ratios {gammas} leave memory residuals {residuals}")
    sizing = integer_packet_sizes(gammas, fs, counts)
    repeats = _message_repeats(layout, spec.plans, intermediates)
    return DerivedScheme(
        spec=spec, layout=layout, fs=fs, counts=counts, sizing=sizing, repeats=repeats
    )


def _staircase_daggers(t: int) -> list[set[int]]:
    """First-coupled-group selection: the larger side transmits everywhere
    except in the all-second-group type."""
    daggers: list[set[int]] = [{1}]
    daggers += [{0} for _ in range(2, t + 2)]
    daggers += [{0}]
    return daggers


def _hill_daggers(t: int, r: int) -> list[set[int]]:
    """Second-coupled-group selection: transmitters switch sides after the pivot r."""
    daggers: list[set[int]] = [{1}]
    daggers += [{0} for k in range(2, r + 2)]
    daggers += [{1} for k in range(r + 2, t + 2)]
    daggers += [{0}]
    return daggers


def preset(name: str, params: SystemParams) -> SchemeSpec:
    """Named scheme constructions.

    theorem1: odd K = 2q+1, even t = 2r, q >= t+1; grouping (q+1, q) with the
      staircase/hill selection pair.
    odd_t3:   odd K = 2q+1, t = 3, q >= 4; same grouping, two hill selections
      with pivots straddling the center (aggregate (0, 3, 3, 0)).
    even_K:   even K = 2q, even t = 2r, q >= 2r+1; grouping (q+1, q-1), same
      selections (validity is checked per instance when deriving).
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
        q, r = (K - 1) // 2, t // 2
        if q < t + 1:
            raise PresetConstraintViolated(f"need q >= t+1, got q={q}, t={t}")
        grouping = UserGrouping((q + 1, q))
    elif name == "odd_t3":
        if t != 3:
            raise PresetConstraintViolated(f"preset is for t = 3, got t={t}")
        if K % 2 == 0:
            raise PresetConstraintViolated("K must be odd (K = 2q+1)")
        q, r = (K - 1) // 2, 1
        if q < 4:
            raise PresetConstraintViolated(f"need q >= 4, got q={q}")
        grouping = UserGrouping((q + 1, q))
        plans = (
            TransmitterSelection.from_lists(_hill_daggers(t, r + 1)),
            TransmitterSelection.from_lists(_hill_daggers(t, r)),
        )
        return SchemeSpec(params, grouping, plans)
    elif name == "even_K":
        if K % 2 == 1:
            raise PresetConstraintViolated("K must be even (K = 2q)")
        if t % 2 == 1:
            raise PresetConstraintViolated("t must be even (t = 2r)")
        q, r = K // 2, t // 2
        if q < 2 * r + 1:
            raise PresetConstraintViolated(f"need q >= 2r+1, got q={q}, t={t}")
        grouping = UserGrouping((q + 1, q - 1))
    else:
        raise PresetConstraintViolated(f"unknown preset {name!r}")
    plans = (
        TransmitterSelection.from_lists(_staircase_daggers(t)),
        TransmitterSelection.from_lists(_hill_daggers(t, r)),
    )
    return SchemeSpec(params, grouping, plans)
