import csv
import io
import itertools
import json
from fractions import Fraction

import pytest

from ptcache.analysis import (
    asymptotic_ratio,
    f_jcm,
    f_pt,
    ratio,
    records_to_csv,
    records_to_json,
    sweep,
    theorem1_fs,
)
from ptcache.scheme import PresetConstraintViolated, SystemParams, count_vectors, derive, preset


def brute_force_f_pt(q, r):
    """Classify every t-subset of [2q+1] and sum its aggregate FS entry.

    The aggregate (0, 2, ..., t-2, then t repeated r+1 times) is written here,
    not read from the engine, so that this stays an independent reference.
    """
    t = 2 * r
    K = 2 * q + 1
    alpha = dict(zip(((k, t - k) for k in range(t + 1)),
                     tuple(2 * k for k in range(r)) + (t,) * (r + 1)))
    total = 0
    for sub in itertools.combinations(range(1, K + 1), t):
        v = (sum(1 for u in sub if u <= q + 1), sum(1 for u in sub if u > q + 1))
        total += alpha[v]
    return total


class TestClosedForms:
    def test_f_pt_values(self):
        assert f_pt(3, 1) == 36 == brute_force_f_pt(3, 1)
        assert f_pt(4, 1) == 60
        assert f_pt(5, 2) == 1180 == brute_force_f_pt(5, 2)

    def test_f_pt_matches_engine_split(self):
        for t, q in [(2, 3), (2, 5), (4, 5)]:
            d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
            assert f_pt(q, t // 2) == d.packets_per_file

    def test_f_jcm(self):
        assert f_jcm(7, 2) == 42
        assert f_jcm(11, 4) == 1320
        assert f_jcm(5, 2) == 20

    def test_saving_is_strict(self):
        for t in (2, 4, 6, 8):
            for q in range(t + 1, t + 10):
                assert f_pt(q, t // 2) < f_jcm(2 * q + 1, t)

    def test_asymptote(self):
        assert asymptotic_ratio(2)[0] == Fraction(3, 4)
        assert asymptotic_ratio(4)[0] == Fraction(13, 16)
        assert asymptotic_ratio(8)[0] == 1 - Fraction(70, 512) == Fraction(221, 256)

    def test_ratio_closed_form_t2(self):
        # at t=2 the ratio collapses to (3/4)(1 + 1/K)
        for q in range(3, 10):
            K = 2 * q + 1
            assert ratio(q, 1) == Fraction(3, 4) * (1 + Fraction(1, K))

    def test_errors(self):
        with pytest.raises(PresetConstraintViolated):
            theorem1_fs(3)
        with pytest.raises(ValueError):
            f_pt(4, 2)  # q < t+1
        with pytest.raises(ValueError):
            f_jcm(4, 4)


class TestSweep:
    def test_t2_initial_ratios(self):
        recs = sweep([2], q_max=6)
        assert [r.ratio for r in recs] == [
            Fraction(6, 7), Fraction(5, 6), Fraction(9, 11), Fraction(21, 26),
        ]

    def test_t4_point(self):
        recs = sweep([4], q_max=5)
        assert recs[0].ratio == Fraction(1180, 1320) == Fraction(59, 66)

    def test_above_asymptote_and_converging(self):
        for t in (2, 4, 6, 8):
            recs = sweep([t], q_max=t + 12)
            gaps = [r.ratio - r.asymptote for r in recs]
            assert all(g > 0 for g in gaps)
            assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_sorted_by_t_then_q(self):
        recs = sweep([4, 2], q_max=None)
        keys = [(r.t, r.q) for r in recs]
        assert keys == sorted(keys)

    def test_gamma_matches_engine(self):
        for t, q in [(2, 3), (2, 7), (4, 5), (6, 8)]:
            d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
            rec = sweep([t], q_max=q)[-1]
            assert rec.q == q and rec.gamma == d.gamma[1]

    def test_gamma_t2_formula(self):
        recs = sweep([2], q_max=8)
        assert all(r.gamma == r.K - 2 for r in recs)

    def test_repeated_t_sweeps_once(self):
        assert sweep([2, 2], q_max=4) == sweep([2], q_max=4)

    def test_one_derive_per_t(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec.params.t)
            return derive(spec)

        monkeypatch.setattr("ptcache.analysis.derive", counted)
        theorem1_fs.cache_clear()
        sweep([2, 4, 6, 8], q_max=400)
        assert calls == [2, 4, 6, 8]

    def test_one_count_vectors_per_record(self, monkeypatch):
        """The work a sweep does, pinned by call count rather than by time."""
        calls = []

        def counted(params, grouping):
            calls.append(params.t)
            return count_vectors(params, grouping)

        monkeypatch.setattr("ptcache.analysis.count_vectors", counted)
        records = sweep([2, 4, 6, 8], q_max=400)
        assert len(calls) == len(records) == 1580

    def test_odd_t_rejected(self):
        with pytest.raises(ValueError):
            sweep([3], q_max=5)


class TestSerialization:
    def test_csv_columns_and_values(self):
        text = records_to_csv(sweep([2], q_max=4))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == [
            "K", "t", "q", "r", "F_PT", "F_JCM",
            "ratio_exact", "ratio_float", "asymptote_exact", "asymptote_float", "gamma",
        ]
        assert rows[0]["ratio_exact"] == "6/7"
        assert rows[0]["gamma"] == "5/1"
        assert rows[0]["ratio_float"] == f"{6 / 7:.12g}"

    def test_json_matches_csv_content(self):
        recs = sweep([2, 4], q_max=None)
        rows_csv = list(csv.DictReader(io.StringIO(records_to_csv(recs))))
        rows_json = json.loads(records_to_json(recs))
        assert [{k: str(v) for k, v in r.items()} for r in rows_json] == rows_csv
