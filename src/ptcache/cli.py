"""Command-line surface: construct, simulate, verify, sweep.

Exit codes: 0 = pass, 1 = verification failure, 2 = invalid configuration.
All output is deterministic given the flags (including --seed); exact
rationals appear as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import analysis, verify
# Not called here: kept because perfbench/spans.py wraps these cli bindings.
from .exchange import generate_delivery, split_files, write_transcript  # noqa: F401
from .scheme import (
    SchemeSpec,
    SystemParams,
    UserGrouping,
    derive,
    preset,
)


def _out_path(path: str | None) -> str | None:
    """Resolve --output against the PTCACHE_OUTPUT_DIR override."""
    if path is None:
        return None
    base = os.environ.get("PTCACHE_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None) -> None:
    resolved = _out_path(path)
    if resolved is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(resolved, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _parse_demands(raw: str, K: int, N: int) -> list[int]:
    if raw in ("distinct", "uniform"):
        return verify.demand_vector(raw, K, N)
    values = [int(x) for x in raw.split(",")]
    if len(values) != K:
        raise ValueError(f"demand vector has {len(values)} entries, expected {K}")
    return values


def _params_from(args: argparse.Namespace) -> SystemParams:
    N = args.N if args.N is not None else args.K
    return SystemParams(K=args.K, t=args.t, N=N, unit=args.unit)


def _spec_from(args: argparse.Namespace) -> SchemeSpec:
    spec = preset(args.preset, _params_from(args))
    if args.grouping:
        sizes = tuple(int(x) for x in args.grouping.split(","))
        spec = SchemeSpec(spec.params, UserGrouping(sizes), spec.plans)
    return spec


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", required=True,
                   choices=["theorem1", "odd_t3", "even_K", "jcm"])
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, default=None, help="number of files (default K)")
    p.add_argument("--unit", type=int, default=1, help="bytes per packet-size unit")
    p.add_argument("--grouping", default=None,
                   help="override the preset grouping, e.g. 8,5 (keeps its selections)")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def cmd_construct(args: argparse.Namespace) -> int:
    derivation = derive(_spec_from(args))
    _emit(derivation.to_json(), args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Audit one delivery, writing its transcript while the audit runs.

    No transcript is written when the run fails before delivery produced
    any messages.
    """
    derivation = derive(_spec_from(args))
    p = derivation.params
    demands = _parse_demands(args.demands, p.K, p.N)
    report = verify._audited_run(derivation, demands, args.seed, _out_path(args.transcript))
    _emit(report.to_json(), args.output)
    return 0 if report.passed else 1


def _parse_range(raw: str) -> list[int]:
    if ":" in raw:
        lo, hi = raw.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(raw)]


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[verify.CheckResult] = []
    ran_any = False
    if args.claims:
        ran_any = True
        if args.t is None or args.q_range is None:
            raise ValueError("--claims needs --t and --q-range")
        for q in _parse_range(args.q_range):
            for name, res in verify.verify_claims(args.t, q).items():
                checks.append(verify.CheckResult(f"{name}[t={args.t},q={q}]", res.passed, res.witness))
    if args.lemma1:
        ran_any = True
        if args.t is None or args.q_range is None:
            raise ValueError("--lemma1 needs --t and --q-range")
        checks.append(verify.verify_lemma1(args.t, _parse_range(args.q_range)))
    if args.lemma3:
        ran_any = True
        if args.K is None or args.t is None:
            raise ValueError("--lemma3 needs --K and --t")
        if args.K % 2 == 0 or args.t % 2 == 1:
            raise ValueError("--lemma3 needs odd K and even t")
        checks.append(verify.verify_lemma3((args.K - 1) // 2, args.t // 2))
    if args.remark3:
        ran_any = True
        if args.q is None and args.q_range is None:
            raise ValueError("--remark3 needs --q or --q-range")
        qs = _parse_range(args.q_range) if args.q_range else [args.q]
        for q in qs:
            res = verify.verify_remark3(q)
            checks.append(verify.CheckResult(f"{res.name}[q={q}]", res.passed, res.witness))
    if args.odd_t:
        ran_any = True
        if args.r_range is None:
            raise ValueError("--odd-t needs --r-range")
        for r in _parse_range(args.r_range):
            res = verify.verify_odd_t_obstruction(r)
            checks.append(verify.CheckResult(f"{res.name}[r={r}]", res.passed, res.witness))
    if not ran_any:
        raise ValueError("nothing to verify: pass --claims/--lemma1/--lemma3/--remark3/--odd-t")
    passed = all(c.passed for c in checks)
    doc = {"passed": passed, "checks": [c.to_json_dict() for c in checks]}
    _emit(json.dumps(doc, indent=2), args.output)
    return 0 if passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    records = analysis.sweep([int(x) for x in args.t.split(",")], q_max=args.q_max)
    text = (
        analysis.records_to_csv(records)
        if args.format == "csv"
        else analysis.records_to_json(records)
    )
    _emit(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcache",
        description="Heterogeneous packet-type D2D coded caching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="derive and print a scheme blueprint")
    _add_scheme_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run the byte-level pipeline and audit it")
    _add_scheme_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demands", default="distinct",
                   help='"distinct", "uniform", or comma-separated file ids')
    p.add_argument("--transcript", default=None, help="write JSON-lines message log")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check analytic claims and scans")
    p.add_argument("--claims", action="store_true")
    p.add_argument("--lemma1", action="store_true")
    p.add_argument("--lemma3", action="store_true")
    p.add_argument("--remark3", action="store_true")
    p.add_argument("--odd-t", dest="odd_t", action="store_true")
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-range", default=None, help="inclusive range lo:hi")
    p.add_argument("--r-range", default=None, help="inclusive range lo:hi")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="emit subpacketization-ratio records")
    p.add_argument("--t", required=True, help="comma-separated even t values")
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every named error of the package subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
