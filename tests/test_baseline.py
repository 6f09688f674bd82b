import itertools
from fractions import Fraction

import pytest

from ptcache import verify
from ptcache.analysis import f_jcm
from ptcache.baseline import ComparisonFailed, compare, jcm_construct
from ptcache.combinatorics import binom
from ptcache.exchange import FileOracle, split_files
from ptcache.scheme import SystemParams, derive, preset
from ptcache.verify import verify_end_to_end


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
        d = jcm_construct(5, 2, 5)
        assert d.packets_per_file == 20
        assert d.rate == Fraction(3, 2)
        assert jcm_construct(7, 2, 7).packets_per_file == 42
        d43 = jcm_construct(4, 3, 4)
        assert d43.packets_per_file == 12
        assert d43.rate == Fraction(1, 3)

    def test_direct_oracle_matches_engine(self):
        for K, t in [(4, 2), (5, 2), (6, 3), (7, 4)]:
            ids = jcm_direct_packet_ids(K, t)
            assert len(ids) == f_jcm(K, t) == t * binom(K, t)
            d = jcm_construct(K, t, K)
            store = split_files(d, FileOracle(), files=[1])
            engine_ids = {(support, j) for support, _, j, _ in store.template}
            assert engine_ids == set(ids)


class TestDecodeGrid:
    @pytest.mark.parametrize("K", range(2, 10))
    def test_all_t_two_seeds(self, K):
        for t in range(1, K):
            d = jcm_construct(K, t, K)
            for seed in (0, 1):
                report = verify_end_to_end(d, "distinct", seed=seed)
                assert report.passed, (K, t, seed, report.failure)
                assert report.rate == Fraction(K - t, t)


class TestComparison:
    def test_example1(self):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        rec = compare(pt, jcm_construct(7, 2, 7))
        assert (rec.pt_packets, rec.jcm_packets) == (36, 42)
        assert rec.pt_rate == rec.jcm_rate == Fraction(5, 2)

    def test_odd_t3(self):
        pt = derive(preset("odd_t3", SystemParams(K=9, t=3, N=9)))
        rec = compare(pt, jcm_construct(9, 3, 9))
        assert (rec.pt_packets, rec.jcm_packets) == (210, 252)
        assert rec.pt_rate == rec.jcm_rate == Fraction(2)

    def test_t4(self):
        pt = derive(preset("theorem1", SystemParams(K=11, t=4, N=11)))
        rec = compare(pt, jcm_construct(11, 4, 11))
        assert (rec.pt_packets, rec.jcm_packets) == (1180, 1320)
        assert rec.pt_rate == rec.jcm_rate == Fraction(7, 4)

    def test_mismatched_params_rejected(self):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        with pytest.raises(ValueError):
            compare(pt, jcm_construct(9, 2, 9))

    def test_packet_saving_required(self):
        jcm = jcm_construct(5, 2, 5)
        with pytest.raises(ComparisonFailed, match="packets"):
            compare(jcm, jcm)

    @pytest.mark.parametrize("skew,match", [
        (lambda report: setattr(report, "rate", report.rate + 1), "rates differ"),
        (lambda report: report.decode_ok.update({1: False}), "decode failed"),
        (lambda report: setattr(report, "failure", "MissingPacket: x"),
         "baseline run failed: MissingPacket"),
    ])
    def test_rate_and_decode_checked(self, monkeypatch, skew, match):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        jcm = jcm_construct(7, 2, 7)
        real = verify.verify_end_to_end

        def skewed(derivation, demands, seed):
            report = real(derivation, demands, seed)
            if derivation is jcm:
                skew(report)
            return report

        monkeypatch.setattr(verify, "verify_end_to_end", skewed)
        with pytest.raises(ComparisonFailed, match=match):
            compare(pt, jcm)

    def test_one_split_and_one_delivery_per_side(self, exchange_calls):
        pt = derive(preset("theorem1", SystemParams(K=7, t=2, N=7)))
        jcm = jcm_construct(7, 2, 7)
        calls = exchange_calls("stream_delivery", "split_files")
        compare(pt, jcm, seed=1)
        for name, args in calls.items():
            assert [a[0] for a in args] == [pt, jcm], name
