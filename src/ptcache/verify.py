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

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .analysis import f_jcm, f_pt, gamma_terms, theorem_alpha
from .combinatorics import hypergeo_pmf, vector_lcm
# generate_delivery, decode_all and total_transmitted_units are not called
# here: kept because perfbench/spans.py wraps these verify bindings.
from .exchange import (  # noqa: F401
    CodedMessage,
    build_caches,
    decode_all,
    decode_files,
    generate_delivery,
    record_transcript,
    split_files,
    stream_delivery,
    total_transmitted_units,
)
from .scheme import (
    DerivedScheme,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    UserGrouping,
    count_vectors,
    derive,
    derive_types,
    frac_str,
    local_fs,
    raw_fs_vector,
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
    def passed(self) -> bool:
        return (
            self.failure is None
            and self.memory_ok
            and self.rate_ok
            and bool(self.decode_ok)
            and all(self.decode_ok.values())
        )

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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def demand_vector(kind: str, K: int, N: int) -> list[int]:
    """Named demand vectors: "distinct" (user u wants file u) or "uniform" (all want file 1)."""
    if kind == "distinct":
        if N < K:
            raise ValueError(f"distinct demands need N >= K, got N={N}, K={K}")
        return list(range(1, K + 1))
    if kind == "uniform":
        return [1] * K
    raise ValueError(f"unknown demand kind {kind!r}")


def verify_end_to_end(
    scheme: SchemeSpec | DerivedScheme,
    demands: Sequence[int] | str = "distinct",
    seed: int = 0,
) -> VerificationReport:
    """Split, place, deliver, and decode, auditing every invariant.

    Never raises on a failing scheme: the report carries the first
    counterexample instead.  Programming errors propagate.
    """
    return _audited_run(scheme, demands, seed)


def _audited_run(
    scheme: SchemeSpec | DerivedScheme,
    demands: Sequence[int] | str,
    seed: int,
    transcript: str | None = None,
) -> VerificationReport:
    """The body of ``verify_end_to_end``, writing the JSON-lines transcript to ``transcript``.

    One streamed pass: each message goes through the transcript (when a
    path is given) and a tally of messages and payload units into the
    decoder, and is then freed; after that, each user's file is assembled,
    compared with the split's bytes and dropped before the next is built.
    The transcript is opened only once delivery has passed its up-front
    checks, so a run that fails before delivery writes none.  When decoding
    fails part way, the rest of the messages still pass through the
    transcript and the tally, so the transcript, ``message_count`` and
    ``rate`` cover every message.  Only ``ValueError`` is caught and
    reported: every named error of the package subclasses it, so any other
    exception is a programming error and propagates.
    """
    report = VerificationReport()
    try:
        derivation = scheme if isinstance(scheme, DerivedScheme) else derive(scheme)
        p = derivation.params
        if isinstance(demands, str):
            demands = demand_vector(demands, p.K, p.N)
        report.packets_per_file = derivation.packets_per_file

        store = split_files(derivation, files=sorted(set(demands)))
        target_units = Fraction(p.t * derivation.sizing.L, p.K)
        report.memory_target = f"{target_units * p.N * p.unit} bytes"
        caches = build_caches(derivation, store)
        report.memory_bytes = {c.user: c.total_bytes for c in caches}
        report.memory_ok = True

        messages = stream_delivery(derivation, store, demands, seed=seed)
        tally = [0, 0]  # messages, payload units
        with open(transcript, "w", encoding="utf-8") if transcript else nullcontext() as fh:
            if fh is not None:
                messages = record_transcript(messages, fh, store)
            messages = _tallied(messages, p.unit, tally)
            try:
                files = decode_files(caches, messages, demands)
            except ValueError:
                for _ in messages:  # the messages a failed decode left unread
                    pass
                raise
            finally:
                report.message_count = tally[0]
                report.rate = Fraction(tally[1], derivation.sizing.L)
                report.rate_ok = report.rate == p.rate

        for user, data in files:
            report.decode_ok[user] = data == store.file_bytes(demands[user - 1])
            del data  # so that one decoded file is alive while the next is assembled
    except ValueError as exc:  # report-style: carry the counterexample
        report.failure = f"{type(exc).__name__}: {exc}"
    return report


def _tallied(messages: Iterable[CodedMessage], unit: int, tally: list[int]) -> Iterator[CodedMessage]:
    """Pass ``messages`` through, counting each in ``tally``: messages, then payload units."""
    for m in messages:
        tally[0] += 1
        tally[1] += len(m.payload) // unit
        yield m


def verify_claims(t: int, q: int) -> dict[str, CheckResult]:
    """The four analytic claims plus ratio positivity, at one (t, q) point.

    Requires even t = 2r and q >= t.  For r = 1 the paired-difference
    sequence has no interior, so only the endpoint signs are checked there.
    """
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t must be even and positive, got {t}")
    if q < t:
        raise ValueError(f"need q >= t, got q={q}, t={t}")
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
    nonneg = [i for i, d in enumerate(pair, start=1) if d >= 0]
    change_point = max(negatives) if negatives else 0
    single_change = (
        bool(negatives)
        and negatives == list(range(1, change_point + 1))
        and nonneg == list(range(change_point + 1, r + 2))
        and pair[0] < 0
        and pair[r] > 0
    )
    if r >= 2:
        single_change = single_change and 2 <= change_point <= r
    results["claim3_single_change"] = CheckResult(
        "claim3_single_change",
        single_change,
        {"pair_sums": pair, "change_point": change_point, "r": r},
    )

    # Comparison-bound machinery: A_k, B_k, phi = A/B on the positive window.
    def A(k: int) -> int:
        return (k - 1) * (k - 2) + (t - k) * (t - k + 1)

    def B(k: int) -> int:
        return t - (t - 2 * (k - 1)) ** 2

    window = [k for k in range(2, t + 2) if B(k) > 0]
    # The cross-difference collapses to one product for every k, not just on
    # the window; check it globally, signs and monotonicity on the window.
    beta_ok = all(
        A(k + 1) * B(k) - A(k) * B(k + 1) == 2 * t * (t - 1) * (2 * k - (t + 1))
        for k in range(2, t + 1)
    )
    phi_ok = True
    betas = {}
    for k in window:
        if k + 1 in window and k <= r - 1:
            beta = A(k + 1) * B(k) - A(k) * B(k + 1)
            betas[k] = beta
            beta_ok = beta_ok and beta < 0
            phi_ok = phi_ok and Fraction(A(k + 1), B(k + 1)) < Fraction(A(k), B(k))
    implication_ok = True
    for k in window:
        if 2 <= k <= r and q < Fraction(A(k), B(k)):
            implication_ok = implication_ok and pair[k - 1] < 0
    results["claim4_phi_monotone"] = CheckResult(
        "claim4_phi_monotone",
        beta_ok and phi_ok and implication_ok,
        {"window": window, "beta": betas},
    )

    gamma = Fraction(-a1, a2) if a2 != 0 else None
    results["lemma2_ratio_positive"] = CheckResult(
        "lemma2_ratio_positive",
        a1 < 0 and a2 > 0 and gamma is not None and gamma > 0,
        {"alpha1_dot_delta": a1, "alpha2_dot_delta": a2,
         "gamma": frac_str(gamma) if gamma else None},
    )
    return results


def ratio_expectation(t: int, q: int) -> Fraction:
    """The subpacketization ratio as a hypergeometric expectation.

    E[h(J)] with J ~ Hypergeo(2q+1, q+1, t) and h(j) = 2j/t below the
    midpoint, 1 from the midpoint up; equals F_PT/F_JCM exactly.
    """
    r = t // 2
    return sum(
        hypergeo_pmf(q, t, j) * (Fraction(2 * j, t) if j <= r - 1 else Fraction(1))
        for j in range(t + 1)
    )


def verify_lemma1(t: int, q_range: Sequence[int]) -> CheckResult:
    """Strict ratio decrease in q, plus the expectation identity at each q."""
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t must be even and positive, got {t}")
    r = t // 2
    qs = sorted(q_range)
    if any(q < t + 1 for q in qs):
        raise ValueError(f"need q >= t+1 throughout, got {qs}")
    ratios = [Fraction(f_pt(q, r), f_jcm(2 * q + 1, t)) for q in qs]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    identity = all(ratio_expectation(t, q) == rho for q, rho in zip(qs, ratios))
    return CheckResult(
        "lemma1_ratio_decreasing",
        decreasing and identity,
        {"q": qs, "ratios": [frac_str(x) for x in ratios], "expectation_identity": identity},
    )


def verify_lemma3(q: int, r: int) -> CheckResult:
    """Grouping scan: (q+1, q) strictly minimizes packets among (q1, K-q1).

    Scans q1 in [q+1 : K-t-1] with the same aggregate FS vector and
    per-grouping subfile counts.
    """
    t = 2 * r
    K = 2 * q + 1
    lo, hi = q + 1, K - t - 1
    if lo > hi:
        raise EmptyRange(f"no groupings to scan: [{lo}:{hi}]")
    alpha = theorem_alpha(t)
    table = {}
    for q1 in range(lo, hi + 1):
        counts = count_vectors(SystemParams(K, t, K), UserGrouping((q1, K - q1))).F
        table[q1] = sum(a * f for a, f in zip(alpha, counts))
    best = min(table.values())
    strict_min_at_lo = table[lo] == best and all(
        v > table[lo] for q1, v in table.items() if q1 != lo
    )
    return CheckResult(
        "lemma3_grouping_minimality",
        strict_min_at_lo,
        {"K": K, "t": t, "table": {str(k): v for k, v in table.items()}, "argmin": lo},
    )


def verify_remark3(q: int) -> CheckResult:
    """With t = 2 and homogeneous sizing, only the uniform vector (2,2,2) fits.

    Enumerates all nine transmitter strategies (three for each of the two
    mixed group types), merges locals by vector LCM, and checks each
    resulting vector's memory residual.
    """
    if q < 3:
        raise ValueError(f"need q >= 3, got {q}")
    t = 2
    params = SystemParams(K=2 * q + 1, t=t, N=2 * q + 1)
    grouping = UserGrouping((q + 1, q))
    layout = derive_types(params, grouping)
    delta = count_vectors(params, grouping).deltas[0]
    choices = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    residuals: dict[tuple[int, ...], int] = {}
    for d2 in choices:
        for d3 in choices:
            plan = TransmitterSelection(
                (frozenset({1}), d2, d3, frozenset({0}))
            )
            vec = raw_fs_vector(plan, layout)
            residuals[vec] = sum(a * d for a, d in zip(vec, delta))
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
    merged = vector_lcm([lo_factor, hi_factor])
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
