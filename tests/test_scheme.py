import ast
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ptcache import scheme
from ptcache.combinatorics import binom
from ptcache.scheme import (
    CountMismatch,
    DegenerateSystem,
    EmptySelection,
    FsVectors,
    IncompatibleLocals,
    InvalidRatio,
    NonzeroResidual,
    PresetConstraintViolated,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UnsupportedGrouping,
    UserGrouping,
    aggregate_fs,
    count_vectors,
    derive,
    derive_types,
    integer_packet_sizes,
    intermediate_fs,
    local_fs,
    memory_residuals,
    preset,
    solve_packet_ratio,
    _hill_daggers,
    _staircase_daggers,
)


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

    def test_rejections(self):
        with pytest.raises(UnsupportedGrouping):
            derive_types(params(9, 2), UserGrouping((3, 3, 3)))
        with pytest.raises(UnsupportedGrouping):
            derive_types(params(6, 2), UserGrouping((3, 3)))
        with pytest.raises(UnsupportedGrouping):
            derive_types(params(7, 3), UserGrouping((5, 2)))  # q2 < t


class TestGrouping:
    def test_members_and_assignment(self):
        g = UserGrouping((4, 3))
        assert g.members(0) == (1, 2, 3, 4)
        assert g.members(1) == (5, 6, 7)
        assert g.group_of(4) == 0 and g.group_of(5) == 1
        assert g.n_distinct == 2

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


class TestFsVectors:
    def test_example_intermediates(self):
        layout = derive_types(params(7, 2), UserGrouping((4, 3)))
        spec = preset("theorem1", params(7, 2))
        assert intermediate_fs(spec.plans[0], layout) == (0, 1, 2)
        assert intermediate_fs(spec.plans[1], layout) == (0, 1, 0)

    @pytest.mark.parametrize("t", [2, 4, 6, 8])
    def test_general_shapes(self, t):
        r = t // 2
        q = t + 1
        layout = derive_types(params(2 * q + 1, t), UserGrouping((q + 1, q)))
        stair = TransmitterSelection.from_lists(_staircase_daggers(t))
        hill = TransmitterSelection.from_lists(_hill_daggers(t, r))
        assert intermediate_fs(stair, layout) == tuple(range(t + 1))
        assert intermediate_fs(hill, layout) == tuple(
            min(k, t - k) for k in range(t + 1)
        )
        agg = aggregate_fs([intermediate_fs(stair, layout), intermediate_fs(hill, layout)])
        assert agg == tuple(2 * k for k in range(r)) + (t,) * (r + 1)
        assert all(a <= t for a in agg)

    def test_aggregate_example(self):
        assert aggregate_fs([(0, 1, 2), (0, 1, 0)]) == (0, 2, 2)
        assert aggregate_fs([(0, 1, 2)]) == (0, 1, 2)

    def test_aggregate_length_mismatch(self):
        from ptcache.scheme import LengthMismatch

        with pytest.raises(LengthMismatch):
            aggregate_fs([(0, 1), (0, 1, 2)])

    def test_odd_t5_pivot_conflict(self):
        # For t=5 the hill attempt needs conflicting repeat counts mid-chain.
        layout = derive_types(params(13, 5), UserGrouping((7, 6)))
        bad = TransmitterSelection.from_lists(_hill_daggers(5, 2))
        with pytest.raises(IncompatibleLocals):
            intermediate_fs(bad, layout)


class TestCountVectors:
    def test_example_values(self):
        counts = count_vectors(params(7, 2), UserGrouping((4, 3)))
        assert counts.F == (3, 12, 6)
        assert counts.per_set == ((0, 3, 3), (2, 4, 0))
        assert counts.deltas == ((2, 1, -3),)

    def test_total_matches_brute_force(self):
        counts = count_vectors(params(11, 4), UserGrouping((6, 5)))
        assert sum(counts.F) == binom(11, 4) == 330
        # independent: enumerate and classify all 4-subsets of [11]
        per_type = {}
        for sub in itertools.combinations(range(1, 12), 4):
            v = (sum(1 for u in sub if u <= 6), sum(1 for u in sub if u > 6))
            per_type[v] = per_type.get(v, 0) + 1
        layout = derive_types(params(11, 4), UserGrouping((6, 5)))
        assert counts.F == tuple(per_type.get(v, 0) for v in layout.subfile_types)

    def test_larger_instance(self):
        counts = count_vectors(params(11, 4), UserGrouping((6, 5)))
        assert counts.F == (5, 60, 150, 100, 15)

    def test_enumeration_mismatch_raises(self, monkeypatch):
        real = scheme.count_subsets_of_type
        monkeypatch.setattr(scheme, "count_subsets_of_type", lambda sizes, v: real(sizes, v) + 1)
        with pytest.raises(CountMismatch):
            count_vectors(params(7, 2), UserGrouping((4, 3)))


class TestPacketRatio:
    def test_example_is_K_minus_2(self):
        for q in range(3, 9):
            spec = preset("theorem1", params(2 * q + 1, 2))
            d = derive(spec)
            assert d.gamma == (1, 2 * q - 1)

    @pytest.mark.parametrize("q", range(4, 9))
    def test_printed_pair_formula_t3(self, q):
        # gamma of the staircase/hill vector pair at t=3 follows
        # 2(2q-1)/(q+4); at q=4 that is 7/4.
        K = 2 * q + 1
        counts = count_vectors(params(K, 3), UserGrouping((q + 1, q)))
        fs = FsVectors(
            intermediate=((0, 1, 2, 3), (0, 2, 1, 0)),
            aggregate=(0, 3, 3, 3),
        )
        gammas = solve_packet_ratio(fs, counts)
        assert gammas[1] == Fraction(2 * (2 * q - 1), q + 4)

    def test_single_coupled_group(self):
        counts = count_vectors(params(5, 2), UserGrouping((5,)))
        fs = FsVectors(intermediate=((2,),), aggregate=(2,))
        assert solve_packet_ratio(fs, counts) == (1,)

    def test_degenerate_system(self):
        two = count_vectors(params(7, 2), UserGrouping((4, 3)))
        one = count_vectors(params(7, 2), UserGrouping((7,)))
        cases = [
            (two, ((0, 1, 2), (1, 1, 1)), "zero memory leverage"),  # (1,1,1).delta == 0
            (one, ((2,), (2,)), "0 memory equations for 1 free ratios"),
            (one, ((2,), (2,), (2,)), "0 memory equations for 2 free ratios"),
            (two, ((0, 1, 2), (0, 2, 2), (2, 2, 2)), "1 memory equations for 2 free ratios"),
        ]
        for counts, intermediate, match in cases:
            fs = FsVectors(intermediate=intermediate, aggregate=aggregate_fs(intermediate))
            with pytest.raises(DegenerateSystem, match=match):
                solve_packet_ratio(fs, counts)

    def test_invalid_ratio(self):
        counts = count_vectors(params(7, 2), UserGrouping((4, 3)))
        fs = FsVectors(intermediate=((0, 1, 0), (0, 2, 0)), aggregate=(0, 3, 0))
        with pytest.raises(InvalidRatio):
            solve_packet_ratio(fs, counts)


class TestIntegerSizes:
    def test_example_sizes(self):
        d = derive(preset("theorem1", params(7, 2)))
        assert d.sizing.ell == (1, 5)
        assert d.sizing.L == 84

    def test_rational_scaling(self):
        counts = count_vectors(params(9, 3), UserGrouping((5, 4)))
        fs = FsVectors(intermediate=((0, 1, 2, 3), (0, 2, 1, 0)), aggregate=(0, 3, 3, 3))
        sizing = integer_packet_sizes(solve_packet_ratio(fs, counts), fs, counts)
        assert sizing.ell == (4, 7)
        assert sizing.L == 1260

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
        assert d.gamma[1] == Fraction(1, 4)  # (q-2)/(q+4) at q=4

    def test_odd_t3_gamma_general(self):
        for q in range(4, 9):
            d = derive(preset("odd_t3", params(2 * q + 1, 3)))
            assert d.gamma[1] == Fraction(q - 2, q + 4)
            assert d.packets_per_file == 3 * q * (2 * q - 1) * (q + 1) // 2

    def test_even_K(self):
        d = derive(preset("even_K", params(12, 2)))
        assert d.fs.aggregate == (0, 2, 2)
        assert d.gamma == (1, 5)
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
        # two unique sets cannot be balanced by one coupled group
        plan = TransmitterSelection.from_lists(
            [{1}, {0}, {0}, {0}]
        )
        with pytest.raises(ValueError, match="N_d"):
            SchemeSpec(params(7, 2), UserGrouping((4, 3)), (plan,))


class TestMemoryConstraint:
    @pytest.mark.parametrize("t", [2, 4])
    def test_residual_zero_on_grid(self, t):
        for q in range(t + 1, t + 7):
            d = derive(preset("theorem1", params(2 * q + 1, t)))
            assert memory_residuals(d.gamma, d.fs, d.counts) == (Fraction(0),)

    def test_products_signs(self):
        for t in (2, 4, 6, 8):
            for q in range(t + 1, t + 7):
                d = derive(preset("theorem1", params(2 * q + 1, t)))
                delta = d.counts.deltas[0]
                a1 = sum(a * x for a, x in zip(d.fs.intermediate[0], delta))
                a2 = sum(a * x for a, x in zip(d.fs.intermediate[1], delta))
                assert a1 < 0 < a2
                assert d.gamma[1] > 0

    def test_nonzero_residual_raises(self, monkeypatch):
        real = scheme.solve_packet_ratio

        def skewed(fs, counts):
            gammas = real(fs, counts)
            return gammas[:1] + tuple(g + 1 for g in gammas[1:])

        monkeypatch.setattr(scheme, "solve_packet_ratio", skewed)
        with pytest.raises(NonzeroResidual):
            derive(preset("theorem1", params(7, 2)))


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


def test_library_has_no_assert_statements():
    """``python -O`` strips asserts, so library checks raise named errors."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "ptcache").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
