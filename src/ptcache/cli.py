"""Command-line surface: construct, simulate, verify, sweep.

Exit codes: 0 = pass, 1 = verification failure, 2 = invalid configuration
or an output path that cannot be written.
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
from .exchange import DemandOutOfRange, check_demands, rewriting
from .scheme import (
    DerivedScheme,
    SchemeSpec,
    SystemParams,
    UserGrouping,
    derive,
    preset,
)


def _out_path(path: str | None) -> str | None:
    """Resolve --output or --transcript against the PTCACHE_OUTPUT_DIR override."""
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
        with rewriting(resolved) as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _parse_demands(raw: str, derivation: DerivedScheme) -> list[int]:
    if raw in ("distinct", "uniform"):
        return verify.demand_vector(raw, derivation.params.K)
    values = _parse_ints("--demands", raw)
    try:
        check_demands(derivation, values)
    except DemandOutOfRange as exc:
        raise DemandOutOfRange(f"--demands {raw}: {exc}") from None
    return values


def _params_from(args: argparse.Namespace) -> SystemParams:
    N = args.N if args.N is not None else args.K
    return SystemParams(K=args.K, t=args.t, N=N, unit=args.unit)


def _spec_from(args: argparse.Namespace) -> SchemeSpec:
    spec = preset(args.preset, _params_from(args))
    if args.grouping is not None:
        sizes = _parse_ints("--grouping", args.grouping)
        spec = SchemeSpec(spec.params, UserGrouping(tuple(sizes)), spec.plans)
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

    The report's --output file is opened (created if missing, not yet
    written) before the audit starts, so a path that cannot be written
    fails the command before any transcript is; a file it created is removed
    if the command then fails.  No transcript is written when the run fails
    before delivery produced any messages.
    """
    derivation = derive(_spec_from(args))
    demands = _parse_demands(args.demands, derivation)
    output = _out_path(args.output)
    created = output is not None and not os.path.exists(output)
    if output is not None:  # created, not truncated: _emit writes it after the audit
        os.close(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666))
    try:
        report = verify.verify_end_to_end(derivation, demands, args.seed, _out_path(args.transcript))
        _emit(report.to_json(), args.output)
        created = False  # the report is written, so it stays
    finally:
        if created:
            os.remove(output)
    return 0 if report.passed else 1


def _parse_range(flag: str, raw: str) -> list[int]:
    parts = raw.split(":")
    try:
        lo, hi = map(int, parts if len(parts) > 1 else parts * 2)
    except ValueError:
        raise ValueError(f"{flag} {raw} is not lo:hi or one integer") from None
    values = list(range(lo, hi + 1))
    if not values:
        raise ValueError(f"{flag} {raw} has no points (need lo <= hi)")
    return values


def _parse_ints(flag: str, raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        shown = raw or "''"  # an empty value, quoted so that it shows
        raise ValueError(f"{flag} {shown} is not a comma-separated list of integers") from None


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[verify.CheckResult] = []
    if args.claims:
        if args.t is None or args.q_range is None:
            raise ValueError("--claims needs --t and --q-range")
        for q in _parse_range("--q-range", args.q_range):
            for name, res in verify.verify_claims(args.t, q).items():
                checks.append(verify.CheckResult(f"{name}[t={args.t},q={q}]", res.passed, res.witness))
    if args.lemma1:
        if args.t is None or args.q_range is None:
            raise ValueError("--lemma1 needs --t and --q-range")
        checks.append(verify.verify_lemma1(args.t, _parse_range("--q-range", args.q_range)))
    if args.lemma3:
        if args.K is None or args.t is None:
            raise ValueError("--lemma3 needs --K and --t")
        checks.append(verify.verify_lemma3(args.K, args.t))
    if args.remark3:
        if args.q_range is None:
            raise ValueError("--remark3 needs --q-range")
        for q in _parse_range("--q-range", args.q_range):
            res = verify.verify_remark3(q)
            checks.append(verify.CheckResult(f"{res.name}[q={q}]", res.passed, res.witness))
    if args.odd_t:
        if args.r_range is None:
            raise ValueError("--odd-t needs --r-range")
        for r in _parse_range("--r-range", args.r_range):
            res = verify.verify_odd_t_obstruction(r)
            checks.append(verify.CheckResult(f"{res.name}[r={r}]", res.passed, res.witness))
    if not checks:
        raise ValueError("nothing to verify: pass --claims/--lemma1/--lemma3/--remark3/--odd-t")
    passed = all(c.passed for c in checks)
    doc = {"passed": passed, "checks": [c.to_json_dict() for c in checks]}
    _emit(json.dumps(doc, indent=2), args.output)
    return 0 if passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    records = analysis.sweep(_parse_ints("--t", args.t), q_max=args.q_max)
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
    p.add_argument("--q-range", default=None, help="inclusive range lo:hi, or one value")
    p.add_argument("--r-range", default=None, help="inclusive range lo:hi, or one value")
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
    except (ValueError, OSError) as exc:  # every named error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
