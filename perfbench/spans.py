"""Spans recorded from the benchmark's side of each call into ptcache.

The library is not changed: ``install`` replaces module attributes (the
names a caller module imported, e.g. ``ptcache.verify.decode_all``) with
wrappers that open a span around the original function.  Calls nest, so
every span has the span that caused it as parent, and a layer's self time
is its duration minus the durations of its children.

Spans stay in memory until the run ends; ``write_spans`` then writes one
JSON object per line.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

# Hooks that turn a call's arguments and result into per-op work counts.
# They run in a "trace.count" span of their own, so that their cost is not
# charged to any layer of ptcache.


def _count_delivery(counts: dict, args: tuple, result) -> None:
    counts["messages"] += len(result)
    counts["payload_bytes"] += sum(len(m.payload) for m in result)


def _count_split(counts: dict, args: tuple, result) -> None:
    counts["split_bytes"] += result.bytes_per_file * len(result.files)


def _count_transcript(counts: dict, args: tuple, result) -> None:
    counts["transcript_bytes"] += os.path.getsize(args[1])


def _count_decode(counts: dict, args: tuple, result) -> None:
    user, cache, messages = args[0], args[1], args[2]
    # A user decodes one message per packet of its file that it does not
    # cache; decode() scans every message to find those.
    counts["decode_useful"] += sum(1 for e in cache.store.template if user not in e[0])
    counts["decode_scanned"] += len(messages)


def _count_sweep(counts: dict, args: tuple, result) -> None:
    counts["records"] += len(result)


# (module, attribute, span name, count hook).  A function imported by name
# into several modules is wrapped in each, under one span name.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "derive", "scheme.derive", None),
    ("cli", "split_files", "exchange.split_files", _count_split),
    ("cli", "generate_delivery", "exchange.generate_delivery", _count_delivery),
    ("cli", "write_transcript", "exchange.write_transcript", _count_transcript),
    ("verify", "verify_end_to_end", "verify.end_to_end", None),
    ("verify", "derive", "scheme.derive", None),
    ("verify", "split_files", "exchange.split_files", _count_split),
    ("verify", "build_caches", "exchange.build_caches", None),
    ("verify", "generate_delivery", "exchange.generate_delivery", _count_delivery),
    ("verify", "total_transmitted_units", "exchange.total_transmitted_units", None),
    ("verify", "decode_all", "exchange.decode_all", None),
    ("verify", "verify_claims", "verify.claims", None),
    ("verify", "verify_lemma1", "verify.lemma1", None),
    ("verify", "verify_remark3", "verify.remark3", None),
    ("baseline", "compare", "baseline.compare", None),
    ("baseline", "derive", "scheme.derive", None),
    ("baseline", "split_files", "exchange.split_files", _count_split),
    ("baseline", "build_caches", "exchange.build_caches", None),
    ("baseline", "generate_delivery", "exchange.generate_delivery", _count_delivery),
    ("baseline", "total_transmitted_units", "exchange.total_transmitted_units", None),
    ("baseline", "decode", "exchange.decode", _count_decode),
    ("exchange", "subsets_by_type", "combinatorics.subsets_by_type", None),
    ("analysis", "sweep", "analysis.sweep", _count_sweep),
    ("analysis", "records_to_csv", "analysis.records_to_csv", None),
)


class Tracer:
    """Collects nested spans and per-op counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one operation; spans and counts inside carry its id."""
        self._op = op_id
        self.op_counts.append(defaultdict(int))
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None and self._op is not None:
                with self.span("trace.count"):
                    hook(self.op_counts[-1], args, result)
            return result

        return traced

    def install(self, package) -> Callable[[], None]:
        """Wrap every TARGETS entry in ``package``; returns the undo."""
        saved = []
        for module_name, attr, name, hook in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

        def restore() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def per_op(self) -> list[dict[str, dict[str, float]]]:
        """For each op: span name -> calls, total seconds, self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        ops: list[dict[str, dict[str, float]]] = [
            defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
            for _ in self.op_counts
        ]
        for s in self.spans:
            if s["op"] is None:
                continue
            row = ops[s["op"]][s["name"]]
            duration = s["end"] - s["start"]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_time[s["id"]]
        return ops

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def layer_table(workload: str, ops: list[dict[str, dict[str, float]]]) -> str:
    """Markdown table: per span name, mean calls, time and self-time share per op."""
    names = sorted({name for op in ops for name in op})
    n = len(ops)
    op_total = sum(op["op"]["s"] for op in ops)
    rows = []
    for name in names:
        calls = sum(op[name]["calls"] for op in ops if name in op) / n
        total = sum(op[name]["s"] for op in ops if name in op) / n
        self_s = sum(op[name]["self_s"] for op in ops if name in op) / n
        rows.append((self_s, name, calls, total))
    rows.sort(reverse=True)
    lines = [
        f"### {workload} ({n} traced ops, mean per op)",
        "",
        "| span | calls/op | total s/op | self s/op | self share of op |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for self_s, name, calls, total in rows:
        share = self_s * n / op_total if op_total else 0.0
        lines.append(f"| {name} | {calls:g} | {total:.6f} | {self_s:.6f} | {share:.1%} |")
    return "\n".join(lines) + "\n"
