import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ptcache import analysis, baseline, verify
from ptcache.analysis import f_jcm, f_pt
from ptcache.combinatorics import hypergeo_weights
from ptcache.exchange import schedule_of, split_files
from ptcache.scheme import (
    CountVectors,
    PresetConstraintViolated,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UnsupportedGrouping,
    UserGrouping,
    derive,
    derive_types,
    fs_and_repeats,
    preset,
    selections,
    _hill_daggers,
)
from ptcache.verify import (
    EmptyRange,
    demand_vector,
    ratio_expectation,
    verify_claims,
    verify_end_to_end,
    verify_lemma1,
    verify_lemma3,
    verify_odd_t_obstruction,
    verify_remark3,
)


class TestEndToEnd:
    def test_example1(self):
        report = verify_end_to_end(
            preset("theorem1", SystemParams(K=7, t=2, N=7)), "distinct", seed=0
        )
        assert report.passed
        assert report.rate == Fraction(5, 2)
        assert report.packets_per_file == 36
        assert set(report.decode_ok) == set(range(1, 8))

    def test_odd_t3(self):
        report = verify_end_to_end(
            preset("odd_t3", SystemParams(K=9, t=3, N=9)), "distinct", seed=1
        )
        assert report.passed
        assert report.rate == Fraction(2)
        assert report.packets_per_file == 210

    def test_jcm(self):
        report = verify_end_to_end(
            preset("jcm", SystemParams(K=5, t=2, N=5)), "distinct", seed=0
        )
        assert report.passed
        assert report.rate == Fraction(3, 2)
        assert report.packets_per_file == 20

    def test_one_size_blueprint(self):
        """One coupled group on a two-group layout whose one memory term is 0 is a
        scheme with one packet size: K=12, t=3, grouping (7,5), FS vector (0,1,2,0)
        needs 280 packets, where JCM needs 660."""
        plan = TransmitterSelection.from_lists([{1}, {0}, {0}, {1}, {0}])
        d = derive(SchemeSpec(SystemParams(K=12, t=3, N=12), UserGrouping((7, 5)), (plan,)))
        assert d.fs.intermediate == ((0, 1, 2, 0),)
        assert (d.packets_per_file, d.sizing.ell, d.sizing.L) == (280, (1,), 280)
        assert f_jcm(12, 3) == 660
        for kind in ("distinct", "uniform"):
            report = verify_end_to_end(d, kind, seed=0)
            assert report.passed, (kind, report.failure)
            assert (report.rate, report.message_count) == (3, 840)

    def test_one_size_blueprint_in_the_papers_regime(self):
        """At (K, t) = (2q+1, 2r) with q = 9, r = 3, one coupled group on grouping (13, 6)
        with one packet size needs 103 740 packets and a file of as many units: theorem 1
        needs 145 908 packets and 15 709 428 units, JCM 162 792.  Its plan is the only
        selection with the FS vector (0,5,4,3,4,5,0); the schedule checks its layout and
        each user's t*L/K cached units, and the byte audit delivers every file at rate 13/6
        in 224 770 messages."""
        p = SystemParams(K=19, t=6, N=19)
        grouping = UserGrouping((13, 6))
        layout = derive_types(p, grouping)
        found = []
        for plan in selections(layout):
            try:
                if fs_and_repeats(plan, layout)[0] == (0, 5, 4, 3, 4, 5, 0):
                    found.append(plan)
            except ValueError:
                continue
        assert found == [TransmitterSelection.from_lists(
            [{1}, {0}, {1}, {1}, {0}, {0}, {1}, {0}])]
        d = derive(SchemeSpec(p, grouping, (found[0],)))
        assert (d.packets_per_file, d.sizing.ell, d.sizing.L) == (103740, (1,), 103740)
        assert (f_jcm(19, 6), f_pt(9, 6)) == (162792, 145908)
        assert derive(preset("theorem1", p)).sizing.L == 15709428
        schedule = schedule_of(d)
        assert schedule.offsets[-1] == d.sizing.L
        assert schedule.cached_units == dict.fromkeys(range(1, 20), 6 * 103740 // 19)
        report = verify_end_to_end(d, "distinct", 0)
        assert report.passed, report.failure
        assert (report.rate, report.message_count) == (Fraction(13, 6), 224770)

    def test_even_K_instance_validity(self):
        report = verify_end_to_end(
            preset("even_K", SystemParams(K=12, t=2, N=12)), "distinct", seed=0
        )
        assert report.passed
        assert report.rate == Fraction(5)

    @pytest.mark.parametrize("K,t", [(6, 2), (12, 4), (14, 4)])
    def test_even_K_more_instances(self, K, t):
        report = verify_end_to_end(
            preset("even_K", SystemParams(K=K, t=t, N=K)), "distinct", seed=0
        )
        assert report.passed, report.failure
        assert report.rate == Fraction(K - t, t)

    def test_wider_unit(self):
        report = verify_end_to_end(
            preset("theorem1", SystemParams(K=7, t=2, N=7, unit=16)), "distinct", seed=0
        )
        assert report.passed
        assert report.memory_bytes[1] == 24 * 7 * 16

    def test_failing_scheme_reports_not_raises(self):
        # two identical hill plans leave the memory system unsolvable
        p = SystemParams(K=7, t=2, N=7)
        hill = TransmitterSelection.from_lists(_hill_daggers(2, 1))
        bad = SchemeSpec(p, UserGrouping((4, 3)), (hill, hill))
        report = verify_end_to_end(bad, "distinct", seed=0)
        assert not report.passed
        assert report.failure is not None

    @pytest.mark.parametrize("seed,failure", [
        (-(2**63) - 1, "SeedOutOfRange"),
        (-(2**63), None),
        (2**63 - 1, None),
        (2**63, "SeedOutOfRange"),
        (2.0, "SeedOutOfRange"),
        (1.5, "SeedOutOfRange"),
        ("3", "SeedOutOfRange"),
    ])
    def test_seed_range_reported(self, seed, failure):
        # the word stream's key holds the seed, an integer, in 8 signed bytes
        report = verify_end_to_end(preset("theorem1", SystemParams(K=7, t=2, N=7)), "distinct", seed)
        assert report.passed is (failure is None)
        assert (report.failure or "").split(":")[0] == (failure or "")

    def test_programming_error_propagates(self, monkeypatch):
        # only the package's ValueErrors become a report failure
        monkeypatch.setattr(verify, "stream_delivery", lambda *args, **kwargs: None)
        with pytest.raises(TypeError):
            verify_end_to_end(preset("theorem1", SystemParams(K=7, t=2, N=7)), "distinct")

    def test_report_serializes(self):
        report = verify_end_to_end(
            preset("theorem1", SystemParams(K=7, t=2, N=7)), "uniform", seed=3
        )
        doc = report.to_json_dict()
        assert doc["passed"] is True
        assert doc["rate"] == "5/2"

    def test_audits_call_no_list_era_name(self, exchange_calls, tmp_path):
        """The audits stream: ``verify_end_to_end`` (with a transcript) and
        ``baseline.compare`` call none of the list-era names that only
        perfbench's tracer binds, so they can go once it binds the streamed ones."""
        names = ("generate_delivery", "decode", "decode_all", "write_transcript",
                 "total_transmitted_units")
        calls = exchange_calls(*names)
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        jcm = derive(preset("jcm", SystemParams(K=7, t=2, N=7)))
        assert verify_end_to_end(pt, "distinct", 1, str(tmp_path / "run.jsonl")).passed
        baseline.compare(pt, jcm, seed=1)
        assert calls == {name: [] for name in names}
        verify.generate_delivery(split_files(pt, [1] * 7))  # the count sees a call
        assert len(calls["generate_delivery"]) == 1

    def test_demand_vector_kinds(self):
        assert demand_vector("distinct", 4) == [1, 2, 3, 4]
        assert demand_vector("uniform", 3) == [1, 1, 1]
        with pytest.raises(ValueError):
            demand_vector("alternating", 4)


class TestAuditMemory:
    def test_peak_holds_one_file_at_a_time(self):
        """The audit's traced peak at the bulk point stays within 1.3x the bytes it split.

        theorem1 K=13 t=2 unit=4096 splits 13 files of 2.2 MB, 29.1 MB in
        all.  The store holds the split once, as packet ints; on top of
        that the streamed audit holds one message at a time and one
        residual list per user, and assembles no file: 1.15x in all.
        Keeping the split's bytes as well and comparing each assembled file
        with them took 2.23x, holding every payload at once 2.50x, and
        every decoded file and every payload 3.58x.
        """
        d = derive(preset("theorem1", SystemParams(K=13, t=2, N=13, unit=4096)))
        split = 13 * d.sizing.L * 4096
        tracemalloc.start()
        try:
            report = verify_end_to_end(d, "distinct", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, report.failure
        assert peak <= 1.3 * split, (peak, split)


class TestClaims:
    def test_t2_q3_values(self):
        res = verify_claims(2, 3)
        assert all(r.passed for r in res.values())
        assert res["claim1_sign_pattern"].witness["delta"] == [2, 1, -3]

    def test_t8_single_change(self):
        res = verify_claims(8, 9)
        assert res["claim3_single_change"].passed

    def test_t4_q5_products(self):
        res = verify_claims(4, 5)
        w = res["lemma2_ratio_positive"].witness
        assert w["alpha1_dot_delta"] == -84
        assert w["alpha2_dot_delta"] == 16
        assert w["gamma"] == "21/4"

    def test_claim4_nonvacuous_at_t24(self):
        res = verify_claims(24, 25)
        assert res["claim4_phi_monotone"].passed
        assert res["claim4_phi_monotone"].witness["compared"] == [11]  # the leg ran

    def test_claim4_beta_identity(self):
        """A(k+1)B(k) - A(k)B(k+1) = 2t(t-1)(2k-(t+1)) as polynomials in t and k.

        Both sides have degree <= 4 in t and in k, so agreeing on the 5 x 5
        grid t, k in {0..4} makes their difference the zero polynomial.
        """
        for t, k in itertools.product(range(5), range(5)):
            lhs = verify._A(t, k + 1) * verify._B(t, k) - verify._A(t, k) * verify._B(t, k + 1)
            assert lhs == 2 * t * (t - 1) * (2 * k - (t + 1)), (t, k)

    @pytest.mark.parametrize("t", range(2, 41, 2))
    def test_claim4_phi_decreases_on_window(self, t):
        """B > 0 on the window and 2k < t+1 for k <= r-1, so the identity makes phi fall."""
        phi = {k: Fraction(verify._A(t, k), verify._B(t, k)) for k in range(2, t + 2) if verify._B(t, k) > 0}
        pairs = [k for k in phi if k + 1 in phi and k <= t // 2 - 1]
        assert pairs or t < 18  # the window first holds such a pair at t = 18
        assert all(phi[k + 1] < phi[k] for k in pairs)

    def test_input_validation(self):
        """Each rejection is its owner's: the theorem1 preset's for odd t,
        ``count_vectors``' for q < t, whose second group cannot host (0, t),
        and ``SystemParams``' for t < 1."""
        with pytest.raises(PresetConstraintViolated, match=r"^t must be even \(t = 2r\)$"):
            verify_claims(3, 5)
        with pytest.raises(UnsupportedGrouping,
                           match=r"^second group of size 3 cannot host type \(0,4\); need q2 >= t$"):
            verify_claims(4, 3)
        with pytest.raises(ValueError, match=r"^t must be >= 1, got 0$"):
            verify_claims(0, 5)


class TestLemma1:
    def test_t2_sequence(self):
        res = verify_lemma1(2, range(3, 7))
        assert res.passed
        assert res.witness["ratios"] == ["6/7", "5/6", "9/11", "21/26"]

    def test_expectation_identity_small(self):
        assert ratio_expectation(2, 3) == Fraction(6, 7) == Fraction(36, 42)

    def test_t4_sweep(self):
        assert verify_lemma1(4, range(5, 16)).passed

    def test_three_ways_agree(self):
        for t in (2, 4):
            for q in range(t + 1, t + 5):
                d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
                store = split_files(d, [1] * (2 * q + 1))
                rho_formula = Fraction(f_pt(q, t), f_jcm(2 * q + 1, t))
                rho_split = Fraction(len(store.template) * t, t * f_jcm(2 * q + 1, t))
                rho_expect = ratio_expectation(t, q)
                assert rho_formula == rho_split == rho_expect

    @pytest.mark.parametrize("t", [2, 4, 6, 8, 10])
    def test_expectation_equals_per_term_fraction_sum(self, t):
        """The integer-weighted expectation equals the sum of pmf * h(j), one Fraction per term."""
        r = t // 2
        for q in range(t + 1, t + 61):
            weights, total = hypergeo_weights(q, t)
            reference = sum(
                Fraction(w, total) * (Fraction(2 * j, t) if j <= r - 1 else Fraction(1))
                for j, w in enumerate(weights)
            )
            assert ratio_expectation(t, q) == reference

    def test_expectation_below_support_raises(self):
        with pytest.raises(ValueError, match=r"^need 0 <= t <= 2q\+1, got q=3, t=8$"):
            ratio_expectation(8, 3)

    def test_one_fraction_per_q(self, monkeypatch):
        """The identity leg's work, pinned by count rather than by time: one Fraction per q."""
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(verify, "Fraction", counted)
        assert verify_lemma1(4, range(5, 105)).passed
        assert len(built) == 100

    def test_a_wrong_last_seed_fails_the_identity(self, monkeypatch):
        """One wrong Newton seed cannot drift unnoticed: F_PT off by one at q = qs[0]+t,
        the last of the t+1 seeds, moves only c_t and so every ratio from that q on.
        (``_failed_checks``' range(5, 9) stops short of q = 9: C(x, t) = 0 for x < t.)"""
        real = analysis.f_pt
        monkeypatch.setattr(analysis, "f_pt", lambda q, t: real(q, t) + (q == 5 + t))
        res = verify_lemma1(4, range(5, 15))
        assert not res.passed
        assert res.witness["expectation_identity"] is False

    def test_empty_range(self):
        with pytest.raises(EmptyRange, match="^no q values to check$"):
            verify_lemma1(2, [])

    def test_one_point_range(self):
        # a decrease needs two ratios; one q compared nothing yet passed
        with pytest.raises(EmptyRange, match=r"^one q value \(5\) to check: a decrease needs two$"):
            verify_lemma1(4, [5])
        with pytest.raises(EmptyRange, match=r"^one q value \(5\) to check: a decrease needs two$"):
            verify_lemma1(4, [5, 5])

    def test_repeated_q_counts_once(self):
        # a < a is false: a repeated q once failed the strict decrease
        res = verify_lemma1(2, [3, 3, 4])
        assert res.passed
        assert res.witness["q"] == [3, 4]


class TestLemma3:
    def test_k13(self):
        res = verify_lemma3(13, 2)
        assert res.passed
        assert res.witness["table"] == {"7": 126, "8": 136, "9": 144, "10": 150}
        assert res.witness["argmin"] == 7

    def test_k7_degenerate_range(self):
        # one grouping compares nothing, so it cannot fail
        message = r"^one grouping \(4, 3\) to scan: a strict minimum needs two$"
        with pytest.raises(EmptyRange, match=message):
            verify_lemma3(7, 2)
        with pytest.raises(EmptyRange, match=r"^one grouping \(6, 5\) to scan"):
            verify_lemma3(11, 4)

    def test_k15_t4(self):
        res = verify_lemma3(15, 4)
        assert res.passed
        assert res.witness["argmin"] == 8

    def test_empty_range(self):
        # q < t+1 leaves no grouping to scan; the theorem1 preset rejects it first
        with pytest.raises(PresetConstraintViolated, match=r"^need q >= t\+1, got q=2, t=2$"):
            verify_lemma3(5, 2)


class TestRemark3:
    def test_q3_unique_vector(self):
        res = verify_remark3(3)
        assert res.passed
        assert res.witness["mc_satisfying"] == [[2, 2, 2]]
        assert res.witness["residuals"]["[0, 1, 2]"] == -5  # 1 - 2q

    def test_q4(self):
        assert verify_remark3(4).passed

    @pytest.mark.parametrize("q", range(3, 13))
    def test_range(self, q):
        assert verify_remark3(q).passed


class TestOddTObstruction:
    def test_boundary_r1(self):
        res = verify_odd_t_obstruction(1)
        assert res.passed
        assert res.witness["merged"] == 2 and not res.witness["obstructed"]

    @pytest.mark.parametrize("r", range(2, 7))
    def test_obstructed(self, r):
        res = verify_odd_t_obstruction(r)
        assert res.passed
        assert res.witness["merged"] == r * (r + 1) > 2 * r + 1
        assert res.witness["pivot_factors"] == [r, r + 1]


@pytest.mark.parametrize("call,error,match", [
    # an odd t reaches the theorem1 preset through ratio -> theorem1_fs
    pytest.param(lambda: verify_lemma1(3, [4, 5]), PresetConstraintViolated,
                 r"^t must be even \(t = 2r\)$", id="lemma1-odd-t"),
    pytest.param(lambda: verify_lemma1(4, [5, 4]), ValueError,
                 r"^need q >= t\+1, got q=4, t=4$", id="lemma1-small-q"),
    pytest.param(lambda: verify_remark3(2), ValueError, r"^need q >= 3, got 2$", id="remark3-small-q"),
    pytest.param(lambda: verify_odd_t_obstruction(0), ValueError, r"^need r >= 1, got 0$",
                 id="odd-t-r0"),
])
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _failed_checks():
    """The witness of each analytic check that fails, by name, each run at one point.

    Claims at t = 24, q = 25, where claim 4 compares k = 11; lemma 3 at
    K = 17, t = 4, whose argmin is q1 = 9; the odd-t check at both r = 1
    (not obstructed) and r = 2 (obstructed).
    """
    results = [
        *verify_claims(24, 25).values(),
        verify_lemma1(4, range(5, 9)),
        verify_lemma3(17, 4),
        verify_remark3(4),
        verify_odd_t_obstruction(1),
        verify_odd_t_obstruction(2),
    ]
    return {res.name: res.witness for res in results if not res.passed}


def _moved(i, j, amount):
    """gamma_terms with amount(delta, t) moved from delta[j] (from nowhere if j is None) to delta[i]."""
    def perturb(real):
        def gamma_terms(q, t):
            delta, a1, a2 = real(q, t)
            d = list(delta)
            x = amount(d, t)
            d[i] += x
            if j is not None:
                d[j] -= x
            return tuple(d), a1, a2
        return gamma_terms
    return perturb


def _zeroing_pair(i):
    """The amount that brings pair[i] = delta[i] + delta[t-i] to 0."""
    return lambda d, t: -(d[i] + d[t - i])


def _gamma_terms_with(a1=1, a2=1):
    """gamma_terms with its dot products scaled by a1 and a2."""
    def perturb(real):
        def gamma_terms(q, t):
            delta, b1, b2 = real(q, t)
            return delta, a1 * b1, a2 * b2
        return gamma_terms
    return perturb


def _derive_inflating_q1(q1):
    """derive, with the grouping (q1, K-q1) counting a million packets more."""
    def perturb(real):
        def derive(spec):
            extra = 10**6 if spec.grouping.sizes[0] == q1 else 0
            return SimpleNamespace(packets_per_file=real(spec).packets_per_file + extra)
        return derive
    return perturb


def _weights_doubled(real):
    """hypergeo_weights with every weight doubled over the same total, so the expectation doubles."""
    def hypergeo_weights(q, t):
        weights, total = real(q, t)
        return tuple(2 * w for w in weights), total
    return hypergeo_weights


def _count_vectors_shifted(real):
    """count_vectors with delta[0] moved by 1, so (2, 2, 2) leaves a residual."""
    def count_vectors(t, sizes):
        counts = real(t, sizes)
        delta = (counts.deltas[0][0] + 1,) + counts.deltas[0][1:]
        return CountVectors(F=counts.F, per_set=counts.per_set, deltas=(delta,))
    return count_vectors


def _vectors_doubled(real):
    """_remark3_vectors with every FS vector doubled, so (2, 2, 2) becomes (4, 4, 4)."""
    return lambda: tuple(tuple(2 * e for e in vector) for vector in real())


@pytest.mark.parametrize("attr,perturb,failed", [
    pytest.param("gamma_terms", _moved(0, None, lambda d, t: 1), {"claim2_zero_sum"}, id="delta-sum"),
    # delta[13] and delta[11] share pair[11]: delta[13] reaches 0, no pair sum moves
    pytest.param("gamma_terms", _moved(13, 11, lambda d, t: -d[13]), {"claim1_sign_pattern"},
                 id="delta-sign"),
    # pair[5] reaches 0 between negative pair sums
    pytest.param("gamma_terms", _moved(5, 6, _zeroing_pair(5)), {"claim3_single_change"}, id="pair-gap"),
    # pair[10] (k = 11, the one compared) reaches 0; claim 3 moves its change point to 10
    pytest.param("gamma_terms", _moved(10, 11, _zeroing_pair(10)), {"claim4_phi_monotone"},
                 id="claim4-leg"),
    pytest.param("gamma_terms", _gamma_terms_with(a2=-1), {"lemma2_ratio_positive"}, id="a2-negated"),
    pytest.param("gamma_terms", _gamma_terms_with(a1=-1), {"lemma2_ratio_positive"}, id="a1-negated"),
    pytest.param("gamma_terms", _gamma_terms_with(a1=0), {"lemma2_ratio_positive"}, id="a1-zero"),
    pytest.param("ratios", lambda real: lambda qs, t: [real([5 if q == 6 else q], t)[0] for q in qs],
                 {"lemma1_ratio_decreasing"}, id="ratio-flat"),
    pytest.param("hypergeo_weights", _weights_doubled, {"lemma1_ratio_decreasing"},
                 id="expectation-doubled"),
    pytest.param("derive", _derive_inflating_q1(9), {"lemma3_grouping_minimality"}, id="argmin-inflated"),
    pytest.param("count_vectors", _count_vectors_shifted,
                 {"remark3_homogeneous_uniqueness"}, id="remark3-delta"),
    pytest.param("_remark3_vectors", _vectors_doubled, {"remark3_homogeneous_uniqueness"},
                 id="remark3-vectors-doubled"),
    pytest.param("local_fs", lambda real: lambda s, daggers: {i: 1 for i, si in enumerate(s) if si > 0},
                 {"odd_t_pivot_obstruction"}, id="odd-t-unit-factors"),
])
def test_every_analytic_check_can_fail(monkeypatch, attr, perturb, failed):
    """Perturbing the one input a check reads flips exactly the checks that read it."""
    assert _failed_checks() == {}
    monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    assert _failed_checks().keys() == failed


@pytest.mark.parametrize("attr,perturb,name,key,value", [
    # gamma = -a1/a2 is 0, not a missing value
    pytest.param("gamma_terms", _gamma_terms_with(a1=0), "lemma2_ratio_positive", "gamma", "0/1",
                 id="a1-zero"),
    # inflating q1 = 9 leaves the fewest packets at q1 = 10
    pytest.param("derive", _derive_inflating_q1(9), "lemma3_grouping_minimality", "argmin", 10,
                 id="argmin-inflated"),
])
def test_failing_witness_names_the_counterexample(monkeypatch, attr, perturb, name, key, value):
    monkeypatch.setattr(verify, attr, perturb(getattr(verify, attr)))
    assert _failed_checks()[name][key] == value
