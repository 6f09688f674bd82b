"""ptcache benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload many_messages --seed 0 --seconds 25 --trace 0

Runs operations of one workload back to back for ``--seconds`` (at least
one), checks every operation's output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, their times normalised
by a reference kernel timed between the ops (``reference.py``); with
``--trace 1`` the calls into ptcache are wrapped in spans and the metrics
are per layer.
The line before it holds the exact per-op counts, fingerprints and sample
counts.  A traced run also writes its spans and a per-layer table under
``perfbench/out/``.

ptcache is imported from ``src/`` next to this directory; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from reference import REF_S, kernel_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 6


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["many_messages", "bulk_bytes", "baseline_compare", "analytic_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import ptcache, set the workload up and exit (set-up probe)")
    return p.parse_args(argv)


def import_ptcache():
    """Import ptcache from this checkout's src/, or exit with code 1."""
    if not (SRC / "ptcache" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ptcache'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ptcache

    if Path(ptcache.__file__).resolve().parent != SRC / "ptcache":
        sys.exit(f"error: imported ptcache from {ptcache.__file__}, not {SRC}")
    return ptcache


def probe_setup(args: argparse.Namespace) -> float:
    """Wall time of a fresh process that imports ptcache and sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", "0", "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def one_op(workload, seed: int, work_dir: Path, tracer) -> tuple[float, tuple | None, str | None]:
    """Run and check one op: its wall time, then (counts, fingerprint) or the failure."""
    from workloads import CheckFailed

    t0 = time.perf_counter()
    try:
        outcome = workload.run(seed, work_dir)
    except Exception:  # an op that raises counts as failed; the run goes on
        return time.perf_counter() - t0, None, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    try:
        with tracer.span("bench.check") if tracer else nullcontext():
            return elapsed, workload.check(outcome), None
    except CheckFailed as exc:
        return elapsed, None, str(exc)
    except Exception:
        return elapsed, None, traceback.format_exc()


def run_ops(workload, args: argparse.Namespace, tracer, work_dir: Path) -> dict:
    """Closed loop: the next op starts when the previous one is checked.

    Each op starts from a collected heap, so it is not charged for the
    garbage of the op before it.  An untraced run also probes set-up between
    ops, at evenly spaced times, and times the reference kernel before the
    first task and after every op and probe, so that its samples interleave
    with the ops; see ``reference.py``.
    """
    durations: list[float] = []
    correct_durations: list[float] = []
    counts: list[dict] = []
    fingerprints: dict[str, str] = {}
    failures: list[str] = []
    probes: list[float] = []
    probes_norm: list[float] = []
    kernel: list[float] = []
    probe_at = [] if tracer else [
        k * args.seconds / (SETUP_PROBES - 1) for k in range(SETUP_PROBES)
    ]

    def probe_setup_norm() -> None:
        """Probe set-up, and scale it by the kernel times right before and after."""
        probes.append(probe_setup(args))
        kernel.append(kernel_s())
        probes_norm.append(probes[-1] * REF_S / statistics.mean(kernel[-2:]))

    if not tracer:
        kernel_s()  # warm-up
        kernel.append(kernel_s())
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        while probe_at and time.perf_counter() - start >= probe_at[0]:
            probe_at.pop(0)
            probe_setup_norm()
        seed = args.seed + i
        gc.collect()
        with tracer.op(i) if tracer else nullcontext():
            elapsed, result, failure = one_op(workload, seed, work_dir, tracer)
        if not tracer:
            kernel.append(kernel_s())
        durations.append(elapsed)
        if failure is not None:
            failures.append(f"seed {seed}: {failure}")
        else:
            correct_durations.append(elapsed)
            counts.append(result[0])
            if result[1] is not None:
                fingerprints[str(seed)] = result[1]
        i += 1
    for _ in probe_at:
        probe_setup_norm()
    for failure in failures:
        print(f"op failed: {failure}", file=sys.stderr)
    return {
        "durations": durations,
        "correct_durations": correct_durations,
        "counts": counts,
        "fingerprints": fingerprints,
        "failures": failures,
        "setup_probe_s": probes,
        "setup_probe_norm_s": probes_norm,
        "kernel_s": kernel,
    }


def fast_mean(times: list[float]) -> float:
    """Mean of the fastest three quarters of ``times``.

    Load from other guests only ever adds time, so the slowest quarter is
    mostly the host's.  Over runs of the same code, this ratio of op to
    kernel spread less than the ratio of medians, which flips between the
    modes of a bimodal op time, or of plain means, which a few slow samples
    move (NOTES.md).
    """
    fast = sorted(times)[: max(1, len(times) - len(times) // 4)]
    return statistics.fmean(fast)


def end_to_end_metrics(ops: dict) -> dict:
    """The gated metrics: normalised median op time, set-up time and peak memory.

    Times are normalised by the reference kernel (``reference.py``), because
    the host's slow spells move raw wall times between runs of the same code
    by more than any useful bound.  The ops' typical time is scaled by the
    kernel's, taken the same way from its samples interleaved with the ops;
    each set-up probe, of which there are few, is scaled by the two samples
    right around it.  The raw wall times go to the detail line.  A run whose
    every op failed reports all its ops.
    """
    op_s = fast_mean(ops["correct_durations"] or ops["durations"])
    return {
        "op_s_norm": {"value": op_s * REF_S / fast_mean(ops["kernel_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(ops["setup_probe_norm_s"]), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB",
        },
    }


# Per-layer span metrics, each named "<span>.<field>": (span name, field).
SPAN_METRICS = (
    ("exchange.generate_delivery", "s"),
    ("exchange.generate_delivery", "calls"),
    ("exchange.split_files", "s"),
    ("exchange.split_files", "calls"),
    ("exchange.decode_all", "s"),
    ("exchange.decode", "s"),
    ("exchange.write_transcript", "s"),
    ("exchange.build_caches", "s"),
    ("cli.simulate", "self_s"),
    ("verify.end_to_end", "self_s"),
    ("baseline.compare", "self_s"),
    ("scheme.derive", "s"),
    ("scheme.derive", "calls"),
    ("combinatorics.subsets_by_type", "s"),
    ("combinatorics.subsets_by_type", "calls"),
    ("analysis.sweep", "s"),
    ("verify.claims", "s"),
)
FIELD_UNITS = {"s": "s/op", "self_s": "s/op", "calls": "calls/op"}

# Per-layer counts recorded by the trace hooks: (metric, count key, unit).
COUNT_METRICS = (
    ("exchange.messages", "messages", "count/op"),
    ("exchange.payload_bytes", "payload_bytes", "bytes/op"),
    ("exchange.split_bytes", "split_bytes", "bytes/op"),
    ("exchange.transcript_bytes", "transcript_bytes", "bytes/op"),
    ("analysis.records", "records", "count/op"),
)


def per_layer_metrics(ops_per_s: float, tracer, span_rows: list) -> dict:
    """Medians over traced ops of each layer's per-op time, calls and counts."""
    metrics = {"traced.ops_per_s": {"value": ops_per_s, "unit": "ops/s"}}
    for name, field in SPAN_METRICS:
        values = [row[name][field] if name in row else 0 for row in span_rows]
        metrics[f"{name}.{field}"] = {"value": statistics.median(values), "unit": FIELD_UNITS[field]}
    for metric, key, unit in COUNT_METRICS:
        values = [c.get(key, 0) for c in tracer.op_counts]
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    ratios = [
        c["decode_useful"] / c["decode_scanned"] if c.get("decode_scanned") else 0.0
        for c in tracer.op_counts
    ]
    metrics["exchange.decode.useful_ratio"] = {"value": statistics.median(ratios), "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    ptcache = import_ptcache()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        return 0
    setup_main_s = time.perf_counter() - T_START

    tracer = None
    restore = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        restore = tracer.install(ptcache)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        ops = run_ops(workload, args, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if restore is not None:
            restore()

    attempted = len(ops["durations"])
    failed = len(ops["failures"])
    correct = ops["correct_durations"]
    ops_per_s = len(correct) / sum(ops["durations"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "samples": len(correct),
        "error_rate": failed / attempted,
        "ops_per_s": ops_per_s,
        "op_s_p50": statistics.median(correct) if correct else None,
        "op_s_min": min(correct) if correct else None,
        "op_s": ops["durations"],
        "counts": ops["counts"][0] if ops["counts"] else None,
        "counts_repeat": all(c == ops["counts"][0] for c in ops["counts"]),
        "fingerprints": ops["fingerprints"],
        "setup_main_s": setup_main_s,
        "setup_probe_s": ops["setup_probe_s"],
        "setup_probe_norm_s": ops["setup_probe_norm_s"],
        "kernel_s": ops["kernel_s"],
    }
    if tracer is not None:
        from spans import layer_table

        span_rows = tracer.per_op()
        metrics = per_layer_metrics(ops_per_s, tracer, span_rows)
        stem = f"{args.workload}-seed{args.seed}"
        spans_file = OUT / f"spans-{stem}.jsonl"
        tracer.write_spans(str(spans_file))
        table = layer_table(args.workload, span_rows)
        (OUT / f"table-{stem}.md").write_text(table, encoding="utf-8")
        detail["spans_file"] = str(spans_file.relative_to(HERE.parent))
        detail["trace_counts"] = dict(tracer.op_counts[0])
        detail["trace_counts_repeat"] = all(c == tracer.op_counts[0] for c in tracer.op_counts)
        print(table)
    else:
        metrics = end_to_end_metrics(ops)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
