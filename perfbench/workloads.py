"""The four benchmark workloads.

Each workload derives its blueprints once when constructed (that is its
set-up), then ``run(seed, work_dir)`` performs one operation through the
public API and ``check(outcome)`` verifies the output and returns the op's
exact counts and an optional fingerprint.  ``check`` raises ``CheckFailed``
on a wrong output.  Operation i of a run uses seed ``s + i``, so no cache
keyed by (derivation, seed) can get a free hit.

Calls go through module attributes (``cli.main``, ``baseline.compare``,
...), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from ptcache import analysis, baseline, cli, verify
from ptcache.scheme import SystemParams, derive, preset

# SHA-256 of records_to_csv(sweep([2, 4, 6, 8], q_max=400)); the sweep is
# exact and takes no seed, so this value is fixed.
SWEEP_CSV_SHA256 = "0f8e014c432b350656eb5a2617e615464e7e766ff4ac9d0093d8f9d99282f86b"


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class _Simulate:
    """One ``ptcache simulate`` CLI run with a transcript, per op."""

    K: int
    t: int
    unit: int

    def __init__(self) -> None:
        self.derivation = derive(
            preset("theorem1", SystemParams(K=self.K, t=self.t, N=self.K, unit=self.unit))
        )

    def run(self, seed: int, work_dir: Path) -> dict:
        transcript = work_dir / "transcript.jsonl"
        report = work_dir / "report.json"
        argv = [
            "simulate", "--preset", "theorem1", "--K", str(self.K), "--t", str(self.t),
            "--unit", str(self.unit), "--demands", "distinct", "--seed", str(seed),
            "--transcript", str(transcript), "--output", str(report),
        ]
        return {"code": cli.main(argv), "transcript": transcript, "report": report}

    def check(self, outcome: dict) -> tuple[dict, str]:
        _check(outcome["code"] == 0, f"exit code {outcome['code']}")
        report = json.loads(outcome["report"].read_text(encoding="utf-8"))
        _check(report["passed"] is True, f"report failed: {report['failure']}")
        _check(
            Fraction(report["rate"]) == Fraction(self.K - self.t, self.t),
            f"rate {report['rate']}",
        )
        data = outcome["transcript"].read_bytes()
        lines = data.count(b"\n")
        _check(lines == report["message_count"],
               f"{lines} transcript lines, {report['message_count']} messages")
        counts = {
            "messages": report["message_count"],
            "packets_per_file": report["packets_per_file"],
            "L": self.derivation.sizing.L,
        }
        return counts, hashlib.sha256(data).hexdigest()


class ManyMessages(_Simulate):
    """26 754 messages of a few bytes: per-message Python work dominates."""

    K, t, unit = 17, 4, 1


class BulkBytes(_Simulate):
    """693 messages over 29 MB of file data: splitting and big-integer XOR dominate."""

    K, t, unit = 13, 2, 4096


class BaselineCompare:
    """theorem1 against jcm at K=13 t=4, through the per-user decoder."""

    def __init__(self) -> None:
        self.pt = derive(preset("theorem1", SystemParams(K=13, t=4, N=13)))
        self.jcm = derive(preset("jcm", SystemParams(K=13, t=4, N=13)))

    def run(self, seed: int, work_dir: Path):
        return baseline.compare(self.pt, self.jcm, seed=seed)

    def check(self, record) -> tuple[dict, None]:
        _check(record.pt_decodes and record.jcm_decodes,
               f"decodes pt={record.pt_decodes} jcm={record.jcm_decodes}")
        _check(record.pt_rate == record.jcm_rate,
               f"rates pt={record.pt_rate} jcm={record.jcm_rate}")
        counts = {
            "pt_packets_per_file": record.pt_packets,
            "jcm_packets_per_file": record.jcm_packets,
            "pt_L": self.pt.sizing.L,
            "jcm_L": self.jcm.sizing.L,
        }
        return counts, None


class AnalyticSweep:
    """Closed-form sweep and analytic checks; no exchange call.  Takes no seed."""

    T_LIST = (2, 4, 6, 8)

    def run(self, seed: int, work_dir: Path) -> dict:
        records = analysis.sweep(list(self.T_LIST), q_max=400)
        checks = []
        for t in self.T_LIST:
            for q in range(t + 1, t + 41):
                checks.extend(verify.verify_claims(t, q).values())
            checks.append(verify.verify_lemma1(t, range(t + 1, t + 101)))
        checks.extend(verify.verify_remark3(q) for q in range(3, 30))
        return {"records": records, "csv": analysis.records_to_csv(records), "checks": checks}

    def check(self, outcome: dict) -> tuple[dict, str]:
        failed = [c.name for c in outcome["checks"] if not c.passed]
        _check(not failed, f"failed checks: {failed[:5]}")
        digest = hashlib.sha256(outcome["csv"].encode()).hexdigest()
        _check(digest == SWEEP_CSV_SHA256, f"sweep CSV sha256 {digest}")
        counts = {
            "records": len(outcome["records"]),
            "csv_bytes": len(outcome["csv"]),
            "checks": len(outcome["checks"]),
        }
        return counts, None


WORKLOADS = {
    "many_messages": ManyMessages,
    "bulk_bytes": BulkBytes,
    "baseline_compare": BaselineCompare,
    "analytic_sweep": AnalyticSweep,
}
