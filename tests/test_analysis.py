import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ptcache import analysis, scheme, verify
from ptcache.analysis import (
    asymptotic_ratio,
    f_jcm,
    f_pt,
    gamma_terms,
    ratio,
    ratios,
    records_to_csv,
    records_to_json,
    sweep,
    theorem1_fs,
)
from ptcache.scheme import (DegenerateSystem, InvalidRatio, PresetConstraintViolated, SystemParams,
                            UnsupportedGrouping, UserGrouping, count_vectors, derive, preset)
from ptcache.verify import verify_remark3

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
        assert f_pt(3, 2) == 36 == brute_force_f_pt(3, 1)
        assert f_pt(4, 2) == 60
        assert f_pt(5, 4) == 1180 == brute_force_f_pt(5, 2)

    def test_f_pt_matches_engine_split(self):
        for t, q in [(2, 3), (2, 5), (4, 5)]:
            d = derive(preset("theorem1", SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)))
            assert f_pt(q, t) == d.packets_per_file

    def test_f_jcm(self):
        assert f_jcm(7, 2) == 42
        assert f_jcm(11, 4) == 1320
        assert f_jcm(5, 2) == 20

    def test_saving_is_strict(self):
        for t in (2, 4, 6, 8):
            for q in range(t + 1, t + 10):
                assert f_pt(q, t) < f_jcm(2 * q + 1, t)

    def test_asymptote(self):
        assert asymptotic_ratio(2) == Fraction(3, 4)
        assert asymptotic_ratio(4) == Fraction(13, 16)
        assert asymptotic_ratio(8) == 1 - Fraction(70, 512) == Fraction(221, 256)

    def test_ratio_closed_form_t2(self):
        # at t=2 the ratio collapses to (3/4)(1 + 1/K)
        for q in range(3, 10):
            K = 2 * q + 1
            assert ratio(q, 2) == Fraction(3, 4) * (1 + Fraction(1, K))

    def test_errors(self):
        with pytest.raises(PresetConstraintViolated):
            theorem1_fs(3)
        with pytest.raises(ValueError):
            f_pt(4, 4)  # q < t+1
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
            assert rec.q == q and rec.gamma == d.sizing.gamma[1]

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

    def test_t_plus_one_count_vectors_per_t(self, monkeypatch):
        """The work a sweep and the benchmark's analytic op do, pinned by counts, not time.

        A sweep reads ``count_vectors`` at the first t+1 points of each t and
        extends the rest by differences; lemma 1 likewise seeds t+1 points per t
        (``analysis.ratios``) and reads every other q off their Newton form.  The
        op (``AnalyticSweep.run`` in ``perfbench/workloads.py``: the sweep, the
        claims, lemma 1 and remark 3) runs once to warm up, then again.  The
        second run counts each (t, q)
        point as often as the op reads it, and runs the count formula's body
        (its size check) for each, so no cache across calls crept in around
        or inside ``count_vectors``; and it builds no ``SystemParams`` or
        ``UserGrouping``.
        """
        calls, checks, built = [], [], []
        real_check = scheme._two_group_sizes

        def counted(t, sizes):
            calls.append(t)
            return count_vectors(t, sizes)

        def checked(sizes, t):
            checks.append(t)
            return real_check(sizes, t)

        def recorded(real):
            def __post_init__(self):
                built.append(self)
                real(self)
            return __post_init__

        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        op = workloads.AnalyticSweep()
        op.run(0, None)
        for module in (analysis, scheme, verify):
            monkeypatch.setattr(module, "count_vectors", counted)
        records = sweep([2, 4, 6, 8], q_max=400)
        assert len(records) == 1580
        assert calls == [t for t in (2, 4, 6, 8) for _ in range(t + 1)]

        calls.clear()
        monkeypatch.setattr(scheme, "_two_group_sizes", checked)
        for cls in (SystemParams, UserGrouping):
            monkeypatch.setattr(cls, "__post_init__", recorded(cls.__post_init__))
        op.check(op.run(0, None))
        # sweep 24 + claims 160 + lemma 1 24 + remark 3 27
        assert (len(calls), len(checks), built) == (235, 235, [])

    @pytest.mark.parametrize("q_max", [9, 400])
    def test_f_jcm_read_at_the_seeds_only(self, monkeypatch, q_max):
        """F_JCM has degree t in q, so a sweep reads ``f_jcm`` at its first t+1 points
        of each t (all of them when there are fewer) and extends the rest."""
        calls = []

        def counted(K, t):
            calls.append(t)
            return f_jcm(K, t)

        monkeypatch.setattr(analysis, "f_jcm", counted)
        ts = (2, 4, 6, 8)
        sweep(ts, q_max=q_max)
        assert calls == [t for t in ts for _ in range(min(t + 1, q_max - t))]

    @pytest.mark.parametrize("t", [2, 4, 6, 8, 10, 12])
    def test_records_equal_the_per_point_owners(self, t):
        """Every record the difference table extends equals the one its point's owners
        give, over ranges shorter than, equal to and longer than the t+1 seeds, and
        its ratio equals the hypergeometric expectation, which shares no code with
        ``count_vectors`` or the table."""
        fs = theorem1_fs(t)
        for q_max in (*range(t + 1, 2 * t + 4), 4 * t + 20):
            records = sweep([t], q_max=q_max)
            assert [r.q for r in records] == list(range(t + 1, q_max + 1))
            for r in records:
                q = r.q
                gamma = scheme.solve_packet_ratio(fs, count_vectors(t, (q + 1, q)))[1]
                assert (r.K, r.r, r.F_PT, r.F_JCM, r.gamma) == (
                    2 * q + 1, t // 2, f_pt(q, t), f_jcm(2 * q + 1, t), gamma), (t, q_max, q)
                assert r.ratio == verify.ratio_expectation(t, q), (t, q_max, q)

    def test_odd_t_rejected(self):
        with pytest.raises(ValueError):
            sweep([3], q_max=5)

    def test_record_contract(self):
        """A record holds the integers of its exact values: ``ratio`` and ``gamma`` are
        read from them, and it stays a frozen, hashable, comparable dataclass."""
        records = sweep([2, 4, 6, 8], q_max=60)
        for rec in records:
            assert rec.ratio == Fraction(rec.F_PT, rec.F_JCM)
            assert rec.gamma == scheme.second_ratio(rec.a1, rec.a2)
        assert [f.name for f in dataclasses.fields(analysis.RatioRecord)] == [
            "K", "t", "q", "r", "F_PT", "F_JCM", "asymptote", "a1", "a2"]
        rec = records[7]
        for name, value in (("q", 1), ("a1", 0), ("ratio", Fraction(1)), ("gamma", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, value)
        assert sweep([2, 4, 6, 8], q_max=60) == records
        assert len(set(records)) == len(records)
        assert dataclasses.replace(rec) == rec and hash(dataclasses.replace(rec)) == hash(rec)
        moved = dataclasses.replace(rec, a1=2 * rec.a1)
        assert moved != rec and moved.gamma == 2 * rec.gamma and moved.q == rec.q
        assert repr(rec) == ("RatioRecord(" + ", ".join(
            f"{f.name}={getattr(rec, f.name)!r}" for f in dataclasses.fields(rec)) + ")")

    @pytest.mark.parametrize("tamper,error,match,first_bad", [
        pytest.param(lambda x, a1, a2: (a1, 0 if x == 2 else a2), DegenerateSystem,
                     r"^second coupled group has zero memory leverage$", 2, id="a2-zero-at-a-seed"),
        pytest.param(lambda x, a1, a2: (-a1 if x == 1 else a1, a2), InvalidRatio,
                     r"^packet size ratio -\d+/\d+ is not positive$", 1, id="one-sign-at-a-seed"),
        # a1 = x - 30 over a2 = 1 reaches 0 at x = 30, a point the seeds only extend to
        pytest.param(lambda x, a1, a2: (x - 30, 1), InvalidRatio,
                     r"^packet size ratio 0 is not positive$", 30, id="zero-past-the-seeds"),
    ])
    def test_sign_rule_fires_at_sweep_time(self, monkeypatch, tamper, error, match, first_bad):
        """With the memory terms tampered so that the point x = q - (t+1) = ``first_bad``
        has a2 = 0 or a1 * a2 >= 0, ``sweep`` itself raises ``second_ratio``'s error and
        message there (not a later CSV or JSON call), and the sweep that stops one point
        short returns records whose gamma at each seed is ``second_ratio`` of its terms."""
        t = 4
        real = analysis.memory_terms
        seen = []

        def tampered(vectors, delta):
            seen.append(tamper(len(seen), *real(vectors, delta)))
            return seen[-1]

        monkeypatch.setattr(analysis, "memory_terms", tampered)
        records = sweep([t], q_max=t + first_bad)
        assert len(records) == first_bad
        assert [r.gamma for r in records[:len(seen)]] == [scheme.second_ratio(*ts) for ts in seen]
        assert all(r.gamma > 0 for r in records)
        seen.clear()
        with pytest.raises(error, match=match) as caught:
            sweep([t], q_max=t + 1 + first_bad)
        assert caught.type is error


@pytest.mark.parametrize("t", range(2, 13, 2))  # theorem 1 takes even t only
def test_ratios_equal_the_per_q_ratio(t):
    """``ratios``' Newton form equals ``ratio`` at every q: ranges from t+1, ranges
    starting above it, ranges shorter than the t+1 seeds, and a sparse set."""
    q_sets = [
        range(t + 1, 4 * t + 20),
        range(t + 7, 3 * t + 30),
        range(t + 1, t + 3),
        range(2 * t + 5, 2 * t + 6),
        [t + 1, t + 9, 5 * t + 77],
    ]
    for qs in q_sets:
        assert ratios(qs, t) == [ratio(q, t) for q in qs], (t, qs)


@pytest.mark.parametrize("degree", range(13))
def test_extended_equals_the_newton_form(degree):
    """``_extended`` gives sum_j c_j C(x, j) at x = 0 .. n-1 from the polynomial's first
    degree+1 values, for mixed-sign coefficients and n from none through past the seeds."""
    rng = random.Random(degree)
    coefficients = [rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for _ in range(degree + 1)]

    def direct(x):
        return sum(c * math.comb(x, j) for j, c in enumerate(coefficients))

    values = [direct(x) for x in range(degree + 1)]
    for n in (0, 1, degree, degree + 1, degree + 6, 400):
        assert analysis._extended(values, n) == [direct(x) for x in range(n)], n


class TestSerialization:
    @pytest.mark.parametrize("t", range(2, 17, 2))  # the sweep takes even t only
    def test_csv_equals_a_csv_writer_rendering(self, t):
        """The one-template CSV is the ``csv`` module's rendering of the same rows, so a
        field that ever needs quoting shows here; the rows are formatted independently."""
        for q_max in (t + 1, 2 * t + 3, 200):
            records = sweep([t], q_max=q_max)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(analysis._CSV_COLUMNS)
            for rec in records:
                writer.writerow([rec.K, rec.t, rec.q, rec.r, rec.F_PT, rec.F_JCM,
                                 f"{rec.ratio.numerator}/{rec.ratio.denominator}",
                                 f"{float(rec.ratio):.12g}",
                                 f"{rec.asymptote.numerator}/{rec.asymptote.denominator}",
                                 f"{float(rec.asymptote):.12g}",
                                 f"{rec.gamma.numerator}/{rec.gamma.denominator}"])
            assert records_to_csv(records) == buf.getvalue(), (t, q_max)

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


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: count_vectors(0, (4, 3)), ValueError, r"^t must be >= 1, got 0$",
                 id="count_vectors-t0"),
    pytest.param(lambda: count_vectors(3, (5, 2)), UnsupportedGrouping,
                 r"^second group of size 2 cannot host type \(0,3\); need q2 >= t$",
                 id="count_vectors-q-below-t"),
    pytest.param(lambda: count_vectors(2, (1, 0)), ValueError, r"^K must be >= t\+1, got K=1, t=2$",
                 id="count_vectors-q0"),
    pytest.param(lambda: count_vectors(1, (3, 0)), UnsupportedGrouping,
                 r"^group sizes must be positive, got \(3, 0\)$", id="count_vectors-q0-K-above-t"),
    pytest.param(lambda: count_vectors(2, (3, 3)), UnsupportedGrouping,
                 r"^equal two-group layouts collapse type components; use one group$",
                 id="count_vectors-equal"),
    pytest.param(lambda: count_vectors(2, (3, 4)), UnsupportedGrouping,
                 r"^group sizes must be non-increasing, got \(3, 4\)$", id="count_vectors-increasing"),
    pytest.param(lambda: count_vectors(2, (4, 3, 2)), UnsupportedGrouping,
                 r"^3-group layouts are not supported$", id="count_vectors-three-groups"),
    pytest.param(lambda: count_vectors(2, (2,)), ValueError, r"^K must be >= t\+1, got K=2, t=2$",
                 id="count_vectors-one-group-K-eq-t"),
    pytest.param(lambda: count_vectors(3, (2,)), ValueError, r"^K must be >= t\+1, got K=2, t=3$",
                 id="count_vectors-one-group-K-below-t"),
    pytest.param(lambda: f_pt(3, 0), ValueError, r"^t must be >= 1, got 0$", id="f_pt-t0"),
    pytest.param(lambda: f_pt(3, 4), ValueError, r"^need q >= t\+1, got q=3, t=4$",
                 id="f_pt-q-below-t"),
    pytest.param(lambda: f_pt(0, 2), ValueError, r"^need q >= t\+1, got q=0, t=2$", id="f_pt-q0"),
    pytest.param(lambda: gamma_terms(3, 0), ValueError, r"^t must be >= 1, got 0$", id="gamma_terms-t0"),
    pytest.param(lambda: gamma_terms(2, 4), UnsupportedGrouping,
                 r"^second group of size 2 cannot host type \(0,4\); need q2 >= t$",
                 id="gamma_terms-q-below-t"),
    pytest.param(lambda: gamma_terms(0, 2), ValueError, r"^K must be >= t\+1, got K=1, t=2$",
                 id="gamma_terms-q0"),
    pytest.param(lambda: verify_remark3(1), ValueError, r"^need q >= 3, got 1$",
                 id="remark3-q-below-t"),
    pytest.param(lambda: verify_remark3(0), ValueError, r"^need q >= 3, got 0$", id="remark3-q0"),
])
def test_rejections_keep_their_errors(call, error, match):
    """Every layout the counts cannot serve is rejected with its error class and message
    exactly: ``SystemParams``' ``ValueError`` for t < 1 and K <= t, ``UserGrouping``'s
    and the layout's ``UnsupportedGrouping`` for the rest, and the callers' own checks."""
    with pytest.raises(error, match=match) as caught:
        call()
    assert caught.type is error
