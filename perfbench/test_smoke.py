"""Smoke test of the benchmark: every workload, one op each, traced and untraced.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json declares, with its
unit, that no op failed, and that the traced run's spans nest: each span
lies inside its parent, siblings do not overlap, and so self time plus the
children's time adds up to each span's duration.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def units(metrics) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    detail, result = run(workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_nested_spans(workload):
    detail, result = run(workload, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert detail["error_rate"] == 0

    spans = [
        json.loads(line)
        for line in (ROOT / detail["spans_file"]).read_text(encoding="utf-8").splitlines()
    ]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == "op"
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)
        assert s["op"] == parent["op"]
        children[s["parent"]].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        assert all(a["end"] <= b["start"] for a, b in zip(kids, kids[1:]))
