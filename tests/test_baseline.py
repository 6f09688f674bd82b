import itertools
import math
from fractions import Fraction

import pytest

from ptcache import verify
from ptcache.analysis import f_jcm
from ptcache.baseline import ComparisonFailed, compare
from ptcache.exchange import split_files
from ptcache.scheme import SystemParams, derive, preset
from ptcache.verify import verify_end_to_end


def jcm_at(K: int, t: int):
    """The baseline at N = K: the ``jcm`` preset, derived."""
    return derive(preset("jcm", SystemParams(K=K, t=t, N=K)))


def jcm_direct_packet_ids(K: int, t: int) -> list[tuple[tuple[int, ...], int]]:
    """Direct two-layer enumeration: (t-subset, packet index) pairs.

    Independent of the PT engine; used to cross-check packet counts.
    """
    return [
        (support, i)
        for support in itertools.combinations(range(1, K + 1), t)
        for i in range(1, t + 1)
    ]


class TestConstruction:
    def test_small_cases(self):
        d = jcm_at(5, 2)
        assert d.packets_per_file == 20
        assert d.params.rate == Fraction(3, 2)
        assert jcm_at(7, 2).packets_per_file == 42
        d43 = jcm_at(4, 3)
        assert d43.packets_per_file == 12
        assert d43.params.rate == Fraction(1, 3)

    def test_direct_oracle_matches_engine(self):
        for K, t in [(4, 2), (5, 2), (6, 3), (7, 4)]:
            ids = jcm_direct_packet_ids(K, t)
            assert len(ids) == f_jcm(K, t) == t * math.comb(K, t)
            d = jcm_at(K, t)
            store = split_files(d, [1] * K)
            engine_ids = {(support, j) for support, _, j, _ in store.template}
            assert engine_ids == set(ids)


class TestDecodeGrid:
    @pytest.mark.parametrize("K", range(2, 10))
    def test_all_t_two_seeds(self, K):
        for t in range(1, K):
            d = jcm_at(K, t)
            for seed in (0, 1):
                report = verify_end_to_end(d, "distinct", seed=seed)
                assert report.passed, (K, t, seed, report.failure)
                assert report.rate == Fraction(K - t, t)


class TestComparison:
    def test_example1(self):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        rec = compare(pt, jcm_at(7, 2))
        assert (rec.pt_packets, rec.jcm_packets) == (36, 42)
        assert rec.pt_rate == rec.jcm_rate == Fraction(5, 2)

    def test_odd_t3(self):
        pt = derive(preset("odd_t3", SystemParams(K=9, t=3, N=9)))
        rec = compare(pt, jcm_at(9, 3))
        assert (rec.pt_packets, rec.jcm_packets) == (210, 252)
        assert rec.pt_rate == rec.jcm_rate == Fraction(2)

    def test_t4(self):
        pt = derive(preset("theorem1", SystemParams(K=11, t=4, N=11)))
        rec = compare(pt, jcm_at(11, 4))
        assert (rec.pt_packets, rec.jcm_packets) == (1180, 1320)
        assert rec.pt_rate == rec.jcm_rate == Fraction(7, 4)

    def test_mismatched_params_rejected(self):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        with pytest.raises(ValueError):
            compare(pt, jcm_at(9, 2))

    def test_packet_saving_required(self):
        jcm = jcm_at(5, 2)
        with pytest.raises(ComparisonFailed, match="packets"):
            compare(jcm, jcm)

    @staticmethod
    def _skewed_compare(monkeypatch, skew, *skewed_sides):
        """``compare`` at K=7 t=2, with ``skew`` applied to the reports of the named sides."""
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        sides = {"PT": pt, "baseline": jcm_at(7, 2)}
        real = verify.verify_end_to_end

        def skewed(derivation, demands, seed):
            report = real(derivation, demands, seed)
            if any(derivation is sides[side] for side in skewed_sides):
                skew(report)
            return report

        monkeypatch.setattr(verify, "verify_end_to_end", skewed)
        return compare(sides["PT"], sides["baseline"])

    @pytest.mark.parametrize("skew,message", [
        (lambda report: setattr(report, "rate_ok", False), "baseline run failed: rate_ok false"),
        (lambda report: report.decode_ok.update({1: False}), "baseline run failed: decode_ok false"),
        (lambda report: setattr(report, "failure", "MissingPacket: x"),
         "baseline run failed: MissingPacket"),
    ])
    def test_rate_and_decode_checked(self, monkeypatch, skew, message):
        """A run that did not pass fails the comparison, named by its failure or failed checks."""
        with pytest.raises(ComparisonFailed, match=f"^{message}"):
            self._skewed_compare(monkeypatch, skew, "baseline")

    def test_shared_wrong_rate_fails(self, monkeypatch):
        """Two runs at the same wrong rate agree with each other, yet neither passed."""
        def wrong_rate(report):
            report.rate += 1
            report.rate_ok = False

        with pytest.raises(ComparisonFailed, match="^PT run failed: rate_ok false$"):
            self._skewed_compare(monkeypatch, wrong_rate, "PT", "baseline")

    def test_one_split_and_one_delivery_per_side(self, exchange_calls):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        jcm = jcm_at(7, 2)
        calls = exchange_calls("stream_delivery", "split_files")
        compare(pt, jcm, seed=1)
        assert [args[0] for args in calls["split_files"]] == [pt, jcm]
        stores = [store for store, in calls["stream_delivery"]]  # the seed goes by keyword
        assert [store.derivation for store in stores] == [pt, jcm]
