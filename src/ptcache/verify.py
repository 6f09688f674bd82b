"""Machine checks for the scheme's verifiable claims.

End-to-end scheme validity runs the real byte pipeline and audits decode
completeness, the memory identity and the exact rate.
The analytic side checks the cache-difference sign pattern, its zero sum,
the paired-difference single sign change, the monotone comparison bound,
the ratio monotonicity and its hypergeometric representation, the grouping
minimality scan, the uniqueness of the homogeneous solution, and the
odd-aggregate-cache pivot obstruction.  Everything is exact rational
arithmetic; no checks involve tolerances.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .analysis import gamma_terms, ratios
from .combinatorics import hypergeo_weights
# generate_delivery, decode_all and total_transmitted_units are not called
# here: kept because perfbench/spans.py wraps these verify bindings.
from .exchange import (  # noqa: F401
    CodedMessage,
    build_caches,
    decode_all,
    decode_residuals,
    generate_delivery,
    record_transcript,
    rewriting,
    split_files,
    stream_delivery,
    total_transmitted_units,
)
from .scheme import (
    DerivedScheme,
    IncompatibleLocals,
    SchemeSpec,
    SystemParams,
    UserGrouping,
    count_vectors,
    derive,
    derive_types,
    frac_str,
    fs_and_repeats,
    local_fs,
    memory_terms,
    preset,
    selections,
)


class EmptyRange(ValueError):
    """A scan range with no points."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check, with witness values for auditing."""

    name: str
    passed: bool
    witness: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass
class VerificationReport:
    """Audit of one end-to-end run.

    No per-message constituent count is kept, as the checks force it: memory
    leaves L(K-t) units to decode, and a message of s units decodes at most
    t*s (one packet per member but the transmitter).  Exactly-once decoding
    makes the decoded units sum to L(K-t) and ``rate_ok`` the s to L(K-t)/t,
    so every message carries exactly t constituents.
    """

    decode_ok: dict[int, bool] = field(default_factory=dict)
    memory_bytes: dict[int, int] = field(default_factory=dict)
    memory_target: str = ""
    memory_ok: bool = False
    rate: Fraction | None = None
    rate_ok: bool = False
    message_count: int = 0
    packets_per_file: int = 0
    failure: str | None = None

    @property
    def failed_checks(self) -> list[str]:
        """Which of ``memory_ok``, ``rate_ok``, ``decode_ok`` (all users, at least one) read false."""
        checks = {"memory_ok": self.memory_ok, "rate_ok": self.rate_ok,
                  "decode_ok": bool(self.decode_ok) and all(self.decode_ok.values())}
        return [name for name, ok in checks.items() if not ok]

    @property
    def passed(self) -> bool:
        return self.failure is None and not self.failed_checks

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "decode_ok": {str(u): ok for u, ok in self.decode_ok.items()},
            "memory_bytes": {str(u): b for u, b in self.memory_bytes.items()},
            "memory_target": self.memory_target,
            "memory_ok": self.memory_ok,
            "rate": frac_str(self.rate) if self.rate is not None else None,
            "rate_ok": self.rate_ok,
            "message_count": self.message_count,
            "packets_per_file": self.packets_per_file,
            "failure": self.failure,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def demand_vector(kind: str, K: int) -> list[int]:
    """Named demand vectors: "distinct" (user u wants file u) or "uniform" (all want file 1)."""
    if kind == "distinct":
        return list(range(1, K + 1))
    if kind == "uniform":
        return [1] * K
    raise ValueError(f"unknown demand kind {kind!r}")


def verify_end_to_end(
    scheme: SchemeSpec | DerivedScheme,
    demands: Sequence[int] | str = "distinct",
    seed: int = 0,
    transcript: str | None = None,
) -> VerificationReport:
    """Split, place, deliver and decode, auditing every invariant.

    One streamed pass: each message goes through the JSON-lines transcript
    (when a ``transcript`` path is given) and a tally of messages and
    payload units into the decoder, and is then freed.  A user decodes its
    file byte-exact when every residual it holds is 0
    (``decode_residuals``), so no file is assembled.
    The transcript is opened only once delivery has passed its up-front
    checks, so a run that fails before delivery writes none.  When decoding
    fails part way, the rest of the messages still pass through the
    transcript and the tally, so the transcript, ``message_count`` and
    ``rate`` cover every message.  A constituent outside the layout stops
    the transcript with the decoder's error, so the three then cover the
    messages before it.

    Never raises on a failing scheme: the report carries the first
    counterexample instead.  Only ``ValueError`` is caught and reported:
    every named error of the package subclasses it, so any other exception
    (a programming error, or an ``OSError`` from the transcript path)
    propagates.
    """
    report = VerificationReport()
    try:
        derivation = scheme if isinstance(scheme, DerivedScheme) else derive(scheme)
        p = derivation.params
        if isinstance(demands, str):
            demands = demand_vector(demands, p.K)
        report.packets_per_file = derivation.packets_per_file
        report.memory_target = f"{Fraction(p.t * derivation.sizing.L, p.K) * p.N * p.unit} bytes"

        store = split_files(derivation, demands)  # its schedule checks the memory identity
        report.memory_bytes = build_caches(store)
        report.memory_ok = True

        messages = stream_delivery(store, seed=seed)
        tally = [0, 0]  # messages, payload units
        with rewriting(transcript) if transcript else nullcontext() as fh:
            if fh is not None:
                messages = record_transcript(messages, fh, store)
            messages = _tallied(messages, p.unit, tally)
            try:
                residuals = decode_residuals(store, messages)
            except ValueError:
                for _ in messages:  # the messages a failed decode left unread
                    pass
                raise
            finally:
                report.message_count = tally[0]
                report.rate = Fraction(tally[1], derivation.sizing.L)
                report.rate_ok = report.rate == p.rate

        report.decode_ok = {user: not any(held) for user, held in residuals.items()}
    except ValueError as exc:  # report-style: carry the counterexample
        report.failure = f"{type(exc).__name__}: {exc}"
    return report


def _tallied(messages: Iterable[CodedMessage], unit: int, tally: list[int]) -> Iterator[CodedMessage]:
    """Pass ``messages`` through, counting each in ``tally``: messages, then payload units."""
    for m in messages:
        tally[0] += 1
        tally[1] += len(m.payload) // unit
        yield m


def _A(t: int, k: int) -> int:
    """Numerator of claim 4's comparison bound phi(k) = A(k)/B(k)."""
    return (k - 1) * (k - 2) + (t - k) * (t - k + 1)


def _B(t: int, k: int) -> int:
    """Denominator of phi(k); claim 4's window is where it is positive."""
    return t - (t - 2 * (k - 1)) ** 2


def verify_claims(t: int, q: int) -> dict[str, CheckResult]:
    """The four analytic claims plus ratio positivity, at one (t, q) point.

    Requires even t = 2r and q >= t, or raises the theorem1 preset's or
    ``count_vectors``' error.  For r = 1 the paired-difference sequence has
    no interior, so only the endpoint signs are checked there.  Claim 4 runs
    only its q-dependent leg, pair[k-1] < 0 for each window k <= r with
    q < phi(k), and lists those k as ``compared``; phi's decrease reads only
    t and is proved once in the tests, by its beta identity.
    """
    r = t // 2
    delta, a1, a2 = gamma_terms(q, t)
    results: dict[str, CheckResult] = {}

    signs_ok = all(delta[k - 1] > 0 for k in range(1, r + 2)) and all(
        delta[k - 1] < 0 for k in range(r + 2, t + 2)
    )
    results["claim1_sign_pattern"] = CheckResult(
        "claim1_sign_pattern", signs_ok, {"delta": list(delta)}
    )
    results["claim2_zero_sum"] = CheckResult(
        "claim2_zero_sum", sum(delta) == 0, {"sum": sum(delta)}
    )

    pair = [delta[k - 1] + delta[t + 1 - k] for k in range(1, r + 1)] + [delta[r]]
    negatives = [i for i, d in enumerate(pair, start=1) if d < 0]
    change_point = max(negatives) if negatives else 0
    # negatives = 1..change_point leaves the rest non-negative; pair[r] > 0 caps it at r
    single_change = (
        bool(negatives)
        and negatives == list(range(1, change_point + 1))
        and pair[r] > 0
    )
    if r >= 2:
        single_change = single_change and 2 <= change_point
    results["claim3_single_change"] = CheckResult(
        "claim3_single_change",
        single_change,
        {"pair_sums": pair, "change_point": change_point, "r": r},
    )

    window = [k for k in range(2, t + 2) if _B(t, k) > 0]
    compared = [k for k in window if k <= r and q * _B(t, k) < _A(t, k)]  # B > 0 in the window
    results["claim4_phi_monotone"] = CheckResult(
        "claim4_phi_monotone",
        all(pair[k - 1] < 0 for k in compared),
        {"window": window, "compared": compared},
    )

    gamma = Fraction(-a1, a2) if a2 != 0 else None
    results["lemma2_ratio_positive"] = CheckResult(
        "lemma2_ratio_positive",
        a1 < 0 < a2,
        {"alpha1_dot_delta": a1, "alpha2_dot_delta": a2,
         "gamma": frac_str(gamma) if gamma is not None else None},
    )
    return results


def ratio_expectation(t: int, q: int) -> Fraction:
    """The subpacketization ratio as a hypergeometric expectation.

    E[h(J)] with J ~ Hypergeo(2q+1, q+1, t) and h(j) = 2j/t below the
    midpoint, 1 from the midpoint up; equals F_PT/F_JCM exactly.  One
    Fraction over t * C(2q+1, t), of an integer sum.
    """
    weights, total = hypergeo_weights(q, t)
    r = t // 2
    below = 2 * sum(map(operator.mul, range(r), weights))
    return Fraction(below + t * sum(weights[r:]), t * total)


def verify_lemma1(t: int, q_range: Sequence[int]) -> CheckResult:
    """Strict ratio decrease over the distinct q, plus the expectation identity at each.

    The ratios come from ``ratios``, which reads ``f_pt`` at the first q .. q+t
    only; the hypergeometric expectation, read per q, shares no code with it.
    """
    qs = sorted(set(q_range))
    if not qs:
        raise EmptyRange("no q values to check")
    if len(qs) == 1:
        raise EmptyRange(f"one q value ({qs[0]}) to check: a decrease needs two")
    rhos = ratios(qs, t)
    decreasing = all(b < a for a, b in zip(rhos, rhos[1:]))
    identity = all(ratio_expectation(t, q) == rho for q, rho in zip(qs, rhos))
    return CheckResult(
        "lemma1_ratio_decreasing",
        decreasing and identity,
        {"q": qs, "ratios": [frac_str(x) for x in rhos], "expectation_identity": identity},
    )


def verify_lemma3(K: int, t: int) -> CheckResult:
    """Grouping scan: (q+1, q) strictly minimizes packets among (q1, K-q1), K = 2q+1.

    The theorem1 preset gates (K, t): odd K, even t and q >= t+1, so the scan
    of q1 in [q+1 : K-t-1] is never empty.  It needs at least two groupings,
    counting each one's packets per file through ``derive`` with theorem1's
    selections held fixed; the witness names the grouping with the fewest.
    """
    params = SystemParams(K, t, K)
    plans = preset("theorem1", params).plans
    lo, hi = (K + 1) // 2, K - t - 1
    if lo == hi:
        raise EmptyRange(f"one grouping ({lo}, {K - lo}) to scan: a strict minimum needs two")
    table = {
        q1: derive(SchemeSpec(params, UserGrouping((q1, K - q1)), plans)).packets_per_file
        for q1 in range(lo, hi + 1)
    }
    return CheckResult(
        "lemma3_grouping_minimality",
        all(v > table[lo] for q1, v in table.items() if q1 != lo),
        {"K": K, "t": t, "table": {str(k): v for k, v in table.items()},
         "argmin": min(table, key=table.get)},
    )


@functools.cache
def _remark3_vectors() -> tuple[tuple[int, ...], ...]:
    """FS vectors of the t = 2 selections (``selections``) that ``fs_and_repeats``
    accepts, seven of nine, merged once: the types do not depend on q once
    q2 >= t, so q = 3 serves every q."""
    layout = derive_types(SystemParams(K=7, t=2, N=7), UserGrouping((4, 3)))
    vectors = []
    for plan in selections(layout):
        try:
            vectors.append(fs_and_repeats(plan, layout)[0])
        except IncompatibleLocals:
            continue
    return tuple(vectors)


def verify_remark3(q: int) -> CheckResult:
    """With t = 2 and homogeneous sizing, only the uniform vector (2,2,2) fits: of the
    deliverable FS vectors, only it has memory term 0 under the grouping (q+1, q)."""
    if q < 3:
        raise ValueError(f"need q >= 3, got {q}")
    vectors = _remark3_vectors()
    residuals = dict(zip(vectors, memory_terms(vectors, count_vectors(2, (q + 1, q)).deltas[0])))
    zero_vectors = {vec for vec, res in residuals.items() if res == 0}
    return CheckResult(
        "remark3_homogeneous_uniqueness",
        zero_vectors == {(2, 2, 2)},
        {
            "q": q,
            "residuals": {str(list(v)): r for v, r in sorted(residuals.items())},
            "mc_satisfying": [list(v) for v in sorted(zero_vectors)],
        },
    )


def verify_odd_t_obstruction(r: int) -> CheckResult:
    """Pivot misalignment for odd t = 2r+1 under the hill-shaped selection.

    The two pivot group types hand the middle subfile type the coprime
    factors r and r+1, so the merged factor r(r+1) exceeds t whenever
    r >= 2; at r = 1 it stays within t, which is why the t = 3 design
    exists.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    t = 2 * r + 1
    s_lo = (r, r + 2)
    s_hi = (r + 1, r + 1)
    lo_factor = local_fs(s_lo, frozenset({0}))[1]
    hi_factor = local_fs(s_hi, frozenset({1}))[0]
    merged = math.lcm(lo_factor, hi_factor)
    obstructed = merged > t
    return CheckResult(
        "odd_t_pivot_obstruction",
        obstructed if r >= 2 else not obstructed,
        {
            "t": t,
            "pivot_factors": [lo_factor, hi_factor],
            "merged": merged,
            "obstructed": obstructed,
        },
    )
