import tracemalloc
from fractions import Fraction

import pytest

from ptcache import verify
from ptcache.analysis import f_jcm, f_pt
from ptcache.exchange import FileOracle, split_files
from ptcache.scheme import (
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UserGrouping,
    derive,
    preset,
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
    ])
    def test_seed_range_reported(self, seed, failure):
        # the bijection key holds the seed in 8 signed bytes
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

    def test_demand_vector_kinds(self):
        assert demand_vector("distinct", 4, 5) == [1, 2, 3, 4]
        assert demand_vector("uniform", 3, 5) == [1, 1, 1]
        with pytest.raises(ValueError):
            demand_vector("alternating", 4, 4)


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
        assert res["claim4_phi_monotone"].witness["beta"]  # window pairs exist

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_claims(3, 5)
        with pytest.raises(ValueError):
            verify_claims(4, 3)


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
            r = t // 2
            for q in range(t + 1, t + 5):
                d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
                store = split_files(d, FileOracle(), files=[1])
                rho_formula = Fraction(f_pt(q, r), f_jcm(2 * q + 1, t))
                rho_split = Fraction(store.packets_per_file * t, t * f_jcm(2 * q + 1, t))
                rho_expect = ratio_expectation(t, q)
                assert rho_formula == rho_split == rho_expect

    def test_empty_range(self):
        with pytest.raises(EmptyRange, match="^no q values to check$"):
            verify_lemma1(2, [])


class TestLemma3:
    def test_k13(self):
        res = verify_lemma3(6, 1)
        assert res.passed
        assert res.witness["table"] == {"7": 126, "8": 136, "9": 144, "10": 150}
        assert res.witness["argmin"] == 7

    def test_k7_degenerate_range(self):
        res = verify_lemma3(3, 1)
        assert res.passed
        assert list(res.witness["table"]) == ["4"]

    def test_k15_t4(self):
        res = verify_lemma3(7, 2)
        assert res.passed
        assert res.witness["argmin"] == 8

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            verify_lemma3(2, 1)


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


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: demand_vector("distinct", 5, 4),
                 r"^distinct demands need N >= K, got N=4, K=5$", id="distinct-N-below-K"),
    # f_pt takes r = t/2: an odd t would silently check the ratios of t - 1
    pytest.param(lambda: verify_lemma1(3, [4, 5]),
                 r"^t must be even and positive, got 3$", id="lemma1-odd-t"),
    pytest.param(lambda: verify_lemma1(4, [5, 4]),
                 r"^need q >= t\+1 throughout, got \[4, 5\]$", id="lemma1-small-q"),
    pytest.param(lambda: verify_remark3(2), r"^need q >= 3, got 2$", id="remark3-small-q"),
    pytest.param(lambda: verify_odd_t_obstruction(0), r"^need r >= 1, got 0$", id="odd-t-r0"),
])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
