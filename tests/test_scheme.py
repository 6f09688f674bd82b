import ast
import importlib.util
import itertools
import json
import math
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from ptcache.scheme import (
    CountVectors,
    DegenerateSystem,
    EmptySelection,
    FsVectors,
    IncompatibleLocals,
    InvalidRatio,
    LengthMismatch,
    PacketSizing,
    PresetConstraintViolated,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UnsupportedGrouping,
    UserGrouping,
    count_vectors,
    derive,
    derive_types,
    fs_and_repeats,
    integer_packet_sizes,
    local_fs,
    memory_terms,
    preset,
    selections,
    solve_packet_ratio,
    _hill_daggers,
)


def binom(n: int, k: int) -> int:
    """C(n, k) with the zero rule at k < 0, where ``math.comb`` raises: the count
    formulas reach C(q1-1, -1) at k = 1 and C(q2-1, -1) at k = t+1."""
    return math.comb(n, k) if k >= 0 else 0


def params(K, t, N=None, unit=1):
    return SystemParams(K=K, t=t, N=N or K, unit=unit)


class TestDeriveTypes:
    def test_example_layout(self):
        layout = derive_types(params(7, 2), UserGrouping((4, 3)))
        assert layout.subfile_types == ((0, 2), (1, 1), (2, 0))
        assert layout.group_types == ((0, 3), (1, 2), (2, 1), (3, 0))
        assert layout.involved == (
            ((1, 0),), ((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2),),
        )

    def test_single_group(self):
        layout = derive_types(params(7, 2), UserGrouping((7,)))
        assert layout.subfile_types == ((2,),)
        assert layout.group_types == ((3,),)

    def test_counts_at_larger_scale(self):
        layout = derive_types(params(11, 4), UserGrouping((6, 5)))
        assert len(layout.subfile_types) == 5
        assert len(layout.group_types) == 6

    @pytest.mark.parametrize("layout_fn", [
        lambda t, sizes: derive_types(params(sum(sizes), t), UserGrouping(sizes)),
        count_vectors,
    ], ids=["derive_types", "count_vectors"])
    def test_rejections(self, layout_fn):
        with pytest.raises(UnsupportedGrouping, match="^3-group layouts are not supported$"):
            layout_fn(2, (3, 3, 3))
        with pytest.raises(UnsupportedGrouping, match="^equal two-group layouts collapse"):
            layout_fn(2, (3, 3))
        with pytest.raises(UnsupportedGrouping, match=r"^second group of size 2 cannot host "
                           r"type \(0,3\); need q2 >= t$"):
            layout_fn(3, (5, 2))  # q2 < t


class TestGrouping:
    def test_members_and_assignment(self):
        g = UserGrouping((4, 3))
        assert g.members(0) == (1, 2, 3, 4)
        assert g.members(1) == (5, 6, 7)

    def test_ordering_enforced(self):
        with pytest.raises(UnsupportedGrouping):
            UserGrouping((3, 4))


class TestLocalFs:
    def test_larger_side_transmits(self):
        assert local_fs((2, 1), frozenset({0})) == {0: 1, 1: 2}

    def test_smaller_side_transmits(self):
        assert local_fs((2, 1), frozenset({1})) == {0: 1, 1: 0}

    def test_one_sided(self):
        assert local_fs((3, 0), frozenset({0})) == {0: 2}

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            local_fs((2, 1), frozenset())
        with pytest.raises(EmptySelection):
            local_fs((3, 0), frozenset({1}))


class TestSelections:
    def test_theorem1_k7_t2_yields_nine(self):
        """Three dagger sets on each mixed type; each end type has one occupied component."""
        layout = derive(preset("theorem1", params(7, 2))).layout
        sides = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        assert list(selections(layout)) == [
            TransmitterSelection((frozenset({1}), d2, d3, frozenset({0})))
            for d2 in sides for d3 in sides
        ]

    def test_preset_plans_are_selections(self):
        for name, K, t in [("theorem1", 11, 4), ("odd_t3", 9, 3), ("even_K", 12, 4), ("jcm", 5, 2)]:
            d = derive(preset(name, params(K, t)))
            assert set(d.spec.plans) <= set(selections(d.layout))

    def test_single_group(self):
        layout = derive_types(params(5, 2), UserGrouping((5,)))
        assert list(selections(layout)) == [TransmitterSelection((frozenset({0}),))]


class TestFsVectors:
    def test_example_intermediates(self):
        layout = derive_types(params(7, 2), UserGrouping((4, 3)))
        spec = preset("theorem1", params(7, 2))
        assert fs_and_repeats(spec.plans[0], layout)[0] == (0, 1, 2)
        assert fs_and_repeats(spec.plans[1], layout)[0] == (0, 1, 0)

    @pytest.mark.parametrize("t", [2, 4, 6, 8])
    def test_general_shapes(self, t):
        r = t // 2
        q = t + 1
        layout = derive_types(params(2 * q + 1, t), UserGrouping((q + 1, q)))
        stair = TransmitterSelection.from_lists(_hill_daggers(t, t))
        hill = TransmitterSelection.from_lists(_hill_daggers(t, r))
        stair_fs, hill_fs = fs_and_repeats(stair, layout)[0], fs_and_repeats(hill, layout)[0]
        assert stair_fs == tuple(range(t + 1))
        assert hill_fs == tuple(min(k, t - k) for k in range(t + 1))
        agg = FsVectors((stair_fs, hill_fs)).aggregate
        assert agg == tuple(2 * k for k in range(r)) + (t,) * (r + 1)
        assert all(a <= t for a in agg)

    def test_aggregate_example(self):
        assert FsVectors(((0, 1, 2), (0, 1, 0))).aggregate == (0, 2, 2)
        assert FsVectors(((0, 1, 2),)).aggregate == (0, 1, 2)

    def test_aggregate_is_computed(self):
        assert FsVectors(intermediate=((0, 1, 2), (0, 1, 0))).aggregate == (0, 2, 2)

    def test_odd_t5_pivot_conflict(self):
        # For t=5 the hill attempt needs conflicting repeat counts mid-chain.
        layout = derive_types(params(13, 5), UserGrouping((7, 6)))
        bad = TransmitterSelection.from_lists(_hill_daggers(5, 2))
        with pytest.raises(IncompatibleLocals):
            fs_and_repeats(bad, layout)

    def test_excluded_type_is_never_delivered(self):
        """Every single selection at small points: a zero local excludes only an end type.

        Every selection (``selections``) of every grouping q1 > q2 >= t.  A
        zero local lands only on (0, t) or (t, 0); a group type with a nonzero
        local on an excluded type delivers no type at all; every rejection
        names conflicting repeat counts.
        """
        outcomes = Counter()
        for K, t in [(7, 2), (9, 2), (9, 3), (11, 3), (11, 4), (13, 4), (13, 5), (15, 6)]:
            for q2 in range(t, (K + 1) // 2):
                layout = derive_types(params(K, t), UserGrouping((K - q2, q2)))
                for plan in selections(layout):
                    factors = [local_fs(s, plan.daggers[k]) for k, s in enumerate(layout.group_types)]
                    locals_of = defaultdict(list)  # by subfile type, every local it gets
                    for k, involved in enumerate(layout.involved):
                        for comp, ti in involved:
                            locals_of[ti].append(factors[k][comp])
                    entries = {ti: math.lcm(*f) for ti, f in locals_of.items()}
                    for k, involved in enumerate(layout.involved):
                        for comp, ti in involved:
                            if factors[k][comp] == 0:
                                assert layout.subfile_types[ti] in {(0, t), (t, 0)}
                            elif entries[ti] == 0:
                                assert not any(entries[tj] for _, tj in involved)
                    try:
                        fs_and_repeats(plan, layout)
                    except IncompatibleLocals as exc:
                        assert "conflicting repeat counts" in str(exc)
                        outcomes["conflicting"] += 1
                    else:
                        outcomes["accepted"] += 1
        assert outcomes == {"accepted": 200, "conflicting": 2329}


class TestCountVectors:
    def test_example_values(self):
        counts = count_vectors(2, (4, 3))
        assert counts.F == (3, 12, 6)
        assert counts.per_set == ((0, 3, 3), (2, 4, 0))
        assert counts.deltas == ((2, 1, -3),)

    def test_total_matches_brute_force(self):
        """Every t-subset of [K], K <= 13, classified by its projection onto the
        groups of every supported layout: (K,) and each (q1, q2) with q1 > q2 >= t.

        The projections are the subfile types; F counts the subsets of each
        type, and group i's cache count the subsets that hold its first user.
        """
        checked = 0
        for K in range(2, 14):
            for t in range(1, K):
                for sizes in [(K,)] + [(K - q2, q2) for q2 in range(t, (K + 1) // 2)]:
                    grouping = UserGrouping(sizes)
                    per_type, holding = Counter(), [Counter() for _ in sizes]
                    for sub in itertools.combinations(range(1, K + 1), t):
                        v = tuple(len(set(sub).intersection(g)) for g in grouping.groups)
                        per_type[v] += 1
                        for i, g in enumerate(grouping.groups):
                            holding[i][v] += g[0] in sub
                    layout = derive_types(params(K, t), grouping)
                    counts = count_vectors(t, sizes)
                    assert layout.subfile_types == tuple(sorted(per_type))
                    assert counts.F == tuple(per_type[v] for v in layout.subfile_types)
                    assert counts.per_set == tuple(
                        tuple(h[v] for v in layout.subfile_types) for h in holding
                    )
                    checked += 1
        assert checked == 169

    def test_larger_instance(self):
        counts = count_vectors(4, (6, 5))
        assert counts.F == (5, 60, 150, 100, 15)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_equals_the_three_binomial_products(self, t):
        """The cache counts are quotients of F; each equals its binomial product."""
        for q2 in range(t, t + 41):
            for q1 in (q2 + 1, q2 + 3):
                counts = count_vectors(t, (q1, q2))
                ks = range(1, t + 2)
                F = tuple(binom(q1, k - 1) * binom(q2, t - k + 1) for k in ks)
                F1 = tuple(binom(q1 - 1, k - 2) * binom(q2, t - k + 1) for k in ks)
                F2 = tuple(binom(q1, k - 1) * binom(q2 - 1, t - k) for k in ks)
                assert counts == CountVectors(
                    F=F, per_set=(F1, F2), deltas=(tuple(b - a for a, b in zip(F1, F2)),)
                )

    @pytest.mark.parametrize("K,t", [(2, 1), (5, 2), (13, 4), (17, 8)])
    def test_one_group_equals_its_binomials(self, K, t):
        counts = count_vectors(t, (K,))
        assert counts == CountVectors(F=(binom(K, t),), per_set=((binom(K - 1, t - 1),),), deltas=())


class TestPacketRatio:
    def test_example_is_K_minus_2(self):
        for q in range(3, 9):
            spec = preset("theorem1", params(2 * q + 1, 2))
            d = derive(spec)
            assert d.sizing.gamma == (1, 2 * q - 1)

    @pytest.mark.parametrize("q", range(4, 9))
    def test_printed_pair_formula_t3(self, q):
        # gamma of the staircase/hill vector pair at t=3 follows
        # 2(2q-1)/(q+4); at q=4 that is 7/4.
        K = 2 * q + 1
        counts = count_vectors(3, (q + 1, q))
        fs = FsVectors(intermediate=((0, 1, 2, 3), (0, 2, 1, 0)))
        gammas = solve_packet_ratio(fs, counts)
        assert gammas[1] == Fraction(2 * (2 * q - 1), q + 4)

    def test_single_coupled_group(self):
        counts = count_vectors(2, (5,))
        fs = FsVectors(intermediate=((2,),))
        assert solve_packet_ratio(fs, counts) == (1,)

    def test_degenerate_system(self):
        two = count_vectors(2, (4, 3))
        one = count_vectors(2, (7,))
        cases = [
            (two, ((0, 1, 2), (1, 1, 1)), "zero memory leverage"),  # (1,1,1).delta == 0
            (one, ((2,), (2,)), "0 memory equations for 1 free ratios"),
            (one, ((2,), (2,), (2,)), "0 memory equations for 2 free ratios"),
            (two, ((0, 1, 2), (0, 2, 2), (2, 2, 2)), "1 memory equations for 2 free ratios"),
        ]
        for counts, intermediate, match in cases:
            fs = FsVectors(intermediate=intermediate)
            with pytest.raises(DegenerateSystem, match=match):
                solve_packet_ratio(fs, counts)

    def test_invalid_ratio(self):
        counts = count_vectors(2, (4, 3))
        fs = FsVectors(intermediate=((0, 1, 0), (0, 2, 0)))
        with pytest.raises(InvalidRatio):
            solve_packet_ratio(fs, counts)


class TestIntegerSizes:
    def test_example_sizes(self):
        d = derive(preset("theorem1", params(7, 2)))
        assert d.sizing.ell == (1, 5)
        assert d.sizing.L == 84

    def test_rational_scaling(self):
        counts = count_vectors(3, (5, 4))
        fs = FsVectors(intermediate=((0, 1, 2, 3), (0, 2, 1, 0)))
        sizing = integer_packet_sizes(solve_packet_ratio(fs, counts), fs, counts)
        assert sizing.ell == (4, 7)
        assert sizing.L == 1260

    def test_gamma_is_the_realised_ratio(self):
        assert PacketSizing(ell=(4, 7), L=1260).gamma == (1, Fraction(7, 4))

    def test_uniform_case(self):
        d = derive(preset("jcm", params(5, 2)))
        assert d.sizing.ell == (1,)
        assert d.sizing.L == 2 * binom(5, 2) == 20


class TestPresets:
    def test_theorem1_example(self):
        d = derive(preset("theorem1", params(7, 2)))
        assert d.fs.intermediate == ((0, 1, 2), (0, 1, 0))
        assert d.fs.aggregate == (0, 2, 2)
        assert d.packets_per_file == 36

    def test_odd_t3(self):
        d = derive(preset("odd_t3", params(9, 3)))
        assert d.fs.aggregate == (0, 3, 3, 0)
        assert d.packets_per_file == 210
        assert d.sizing.gamma[1] == Fraction(1, 4)  # (q-2)/(q+4) at q=4

    def test_odd_t3_gamma_general(self):
        for q in range(4, 9):
            d = derive(preset("odd_t3", params(2 * q + 1, 3)))
            assert d.sizing.gamma[1] == Fraction(q - 2, q + 4)
            assert d.packets_per_file == 3 * q * (2 * q - 1) * (q + 1) // 2

    def test_even_K(self):
        d = derive(preset("even_K", params(12, 2)))
        assert d.fs.aggregate == (0, 2, 2)
        assert d.sizing.gamma == (1, 5)
        assert d.packets_per_file == 112

    def test_jcm(self):
        d = derive(preset("jcm", params(5, 2)))
        assert d.fs.aggregate == (2,)
        assert d.packets_per_file == 20

    def test_constraints(self):
        with pytest.raises(PresetConstraintViolated, match="K must be odd"):
            preset("theorem1", params(8, 2))
        with pytest.raises(PresetConstraintViolated, match="even"):
            preset("theorem1", params(9, 3))
        with pytest.raises(PresetConstraintViolated, match="q >= t\\+1"):
            preset("theorem1", params(9, 4))
        with pytest.raises(PresetConstraintViolated, match="q >= 4"):
            preset("odd_t3", params(7, 3))
        with pytest.raises(PresetConstraintViolated, match="K must be even"):
            preset("even_K", params(7, 2))
        with pytest.raises(PresetConstraintViolated, match="unknown preset"):
            preset("nope", params(7, 2))

    def test_remark1_guard(self):
        # two unique sets cannot be balanced by one coupled group whose memory
        # term is not 0: the one equation leaves no free ratio, so derive
        # rejects the spec (a zero term is test_verify's one-size blueprint)
        plan = TransmitterSelection.from_lists(
            [{1}, {0}, {0}, {0}]
        )
        spec = SchemeSpec(params(7, 2), UserGrouping((4, 3)), (plan,))
        with pytest.raises(DegenerateSystem,
                           match=r"^1 memory equations for 0 free ratios: .* term is -5, not 0$"):
            derive(spec)


class TestMemoryConstraint:
    @pytest.mark.parametrize("t", [2, 4])
    def test_residual_zero_on_grid(self, t):
        for q in range(t + 1, t + 7):
            d = derive(preset("theorem1", params(2 * q + 1, t)))
            terms = memory_terms(d.fs.intermediate, d.counts.deltas[0])
            assert sum(map(operator.mul, d.sizing.gamma, terms)) == 0

    def test_products_signs(self):
        for t in (2, 4, 6, 8):
            for q in range(t + 1, t + 7):
                d = derive(preset("theorem1", params(2 * q + 1, t)))
                delta = d.counts.deltas[0]
                a1 = sum(a * x for a, x in zip(d.fs.intermediate[0], delta))
                a2 = sum(a * x for a, x in zip(d.fs.intermediate[1], delta))
                assert a1 < 0 < a2
                assert d.sizing.gamma[1] > 0


class TestSerialization:
    def test_blueprint_document(self):
        d = derive(preset("theorem1", params(7, 2)))
        doc = json.loads(d.to_json())
        assert doc["fs"]["aggregate"] == [0, 2, 2]
        assert doc["sizing"]["gamma"] == ["1/1", "5/1"]
        assert doc["sizing"]["ell"] == [1, 5]
        assert doc["F_PT"] == 36
        assert doc["rate"] == "5/2"
        assert doc["grouping"]["groups"][0] == [1, 2, 3, 4]

    def test_deterministic(self):
        a = derive(preset("theorem1", params(7, 2))).to_json()
        b = derive(preset("theorem1", params(7, 2))).to_json()
        assert a == b


K7_T2_LAYOUT = derive_types(params(7, 2), UserGrouping((4, 3)))


@pytest.mark.parametrize("build,error,match", [
    pytest.param(lambda: SystemParams(K=3, t=0, N=3), ValueError,
                 r"^t must be >= 1, got 0$", id="params-t"),
    pytest.param(lambda: SystemParams(K=2, t=2, N=2), ValueError,
                 r"^K must be >= t\+1, got K=2, t=2$", id="params-K"),
    pytest.param(lambda: SystemParams(K=5, t=2, N=4), ValueError,
                 r"^N must be >= K, got N=4, K=5$", id="params-N"),
    pytest.param(lambda: SystemParams(K=5, t=2, N=5, unit=0), ValueError,
                 r"^unit must be >= 1, got 0$", id="params-unit"),
    pytest.param(lambda: UserGrouping((4, 0)), UnsupportedGrouping,
                 r"^group sizes must be positive, got \(4, 0\)$", id="grouping-zero"),
    pytest.param(lambda: SchemeSpec(params(7, 2), UserGrouping((4, 3)), ()), ValueError,
                 r"^need at least one coupled group$", id="spec-no-plans"),
    pytest.param(lambda: fs_and_repeats(TransmitterSelection.from_lists([{0}]), K7_T2_LAYOUT),
                 LengthMismatch, r"^plan covers 1 group types, layout has 4$", id="plan-length"),
    pytest.param(lambda: memory_terms([(1,)], ()),
                 LengthMismatch, r"^dot product of lengths 1 and 0$", id="terms-length"),
    pytest.param(lambda: solve_packet_ratio(FsVectors(((1, 2, 3), (3, 2, 1))),
                                            count_vectors(3, (5, 4))),
                 LengthMismatch, r"^dot product of lengths 3 and 4$", id="dot-length"),
    pytest.param(lambda: preset("odd_t3", params(9, 2)), PresetConstraintViolated,
                 r"^preset is for t = 3, got t=2$", id="odd_t3-t"),
    pytest.param(lambda: preset("odd_t3", params(10, 3)), PresetConstraintViolated,
                 r"^K must be odd \(K = 2q\+1\)$", id="odd_t3-K"),
    pytest.param(lambda: preset("even_K", params(10, 3)), PresetConstraintViolated,
                 r"^t must be even \(t = 2r\)$", id="even_K-t"),
    pytest.param(lambda: preset("even_K", params(8, 4)), PresetConstraintViolated,
                 r"^need q >= 2r\+1, got q=4, t=4$", id="even_K-q"),
])
def test_input_checks(build, error, match):
    with pytest.raises(error, match=match):
        build()


LIBRARY = Path(__file__).resolve().parents[1] / "src" / "ptcache"
SPANS = LIBRARY.parents[1] / "perfbench" / "spans.py"


def library_nodes():
    """(file name, node) for every AST node of the library's modules."""
    sources = sorted(LIBRARY.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_library_has_no_assert_statements():
    """``python -O`` strips asserts, so library checks raise named errors."""
    found = [f"{name}:{node.lineno}" for name, node in library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_broad_except():
    """No handler catches Exception, BaseException or everything.

    Named errors subclass ValueError, so handlers name what they expect and
    a programming error is never reported as a failing scheme.
    """
    found = [
        f"{name}:{node.lineno}"
        for name, node in library_nodes()
        if isinstance(node, ast.ExceptHandler)
        and (
            node.type is None
            or any(
                isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
                for n in ast.walk(node.type)
            )
        )
    ]
    assert found == []


def test_library_has_no_unused_imports():
    """Every name a module imports is read in that module, or is a binding
    that ``perfbench/spans.py`` wraps (a ``(module, name)`` row of its
    ``TARGETS``, loaded by path as ``test_perfbench_targets`` does).

    ``__init__.py`` re-exports and ``__future__`` imports bind nothing, so
    both are exempt.  So an import that a deletion leaves behind fails here,
    as does a kept binding once its ``TARGETS`` row goes.
    """
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(f"{module}.py", attr) for module, attr, _, _ in spans.TARGETS}
    imported, read = {}, set()
    for name, node in library_nodes():
        if name == "__init__.py":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[name, alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add((name, node.id))
    assert [f"{n}:{imported[n, b]} {b}" for n, b in sorted(set(imported) - read - wrapped)] == []


def test_library_has_no_unreferenced_private_names():
    """Every module-level private function, class or constant (a name that
    starts with ``_``, dunders exempt) is read in its own module, so a helper
    that a deletion leaves behind fails here."""
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                      and name not in read]
    assert found == []


def test_library_raises_every_error_class_it_defines():
    """Every ``ValueError`` subclass defined in the library (directly or through
    another) is raised by the library, so an error class whose last ``raise`` a
    deletion removed fails here, even if a test still raises it."""
    classes, raised = {}, set()
    for name, node in library_nodes():
        if isinstance(node, ast.ClassDef):
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            classes[node.name] = (f"{name}:{node.lineno}", bases)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    errors = {"ValueError"}
    while grown := {c for c, (_, bases) in classes.items() if bases & errors} - errors:
        errors |= grown
    assert "MemoryMismatch" in errors  # the scan found the library's error classes
    assert [f"{classes[c][0]} {c}" for c in sorted(errors - {"ValueError"}) if c not in raised] == []
