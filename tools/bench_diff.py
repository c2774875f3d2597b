"""Parent-vs-change gate over ``benchmarks/e2e/run.py`` results.

Usage: ``python -m tools.bench_diff PARENT_DIR CHANGE_DIR``

Every ``results.json`` under a directory is one run (CI: three per side
on one runner, ordered P C C P P C). Bounds and ``better`` come from the
root ``BENCHMARK.json``. Per workload and end-to-end metric, over the
medians, ``worse`` is ``(c - p) / p`` (lower is better) or
``(p - c) / p`` (higher is better). Past the bound, a metric is
REGRESSED (exit 1) when every change run is worse than every parent run,
else ``unresolved`` (printed, not failed: noise cannot tell the sides
apart). Metrics the parent lacks are new and not gated. A change run
with ``correct: false`` or a larger summed failed/attempted share also
exits 1; a missing or empty directory or an unreadable ``results.json``
exits 2. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Run = Dict[str, dict]       # one results.json "workloads" mapping


class Unreadable(Exception):
    """A run directory the gate cannot compare (exit 2)."""


class Row(NamedTuple):
    """The parent-vs-change verdict for one workload metric."""

    workload: str
    metric: str
    parent: float
    change: float
    worse: float
    bound: float
    verdict: str        # "ok", "unresolved" or "REGRESSED"


def load_runs(directory: Path) -> List[Run]:
    """Every ``results.json`` under ``directory``, in path order."""
    if not directory.is_dir():
        raise Unreadable(f"{directory} is not a directory")
    runs = []
    for path in sorted(directory.rglob("results.json")):
        try:
            workloads = json.loads(path.read_text())["workloads"]
            runs.append({name: {
                "e2e": {k: float(v) for k, v in r["e2e"].items()},
                "correct": r["correct"] is True, "failed": int(r["failed"]),
                "attempted": int(r["attempted"])}
                for name, r in workloads.items()})
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise Unreadable(f"cannot read {path}: {exc!r}") from exc
    if not runs:
        raise Unreadable(f"no results.json under {directory}")
    return runs


def _values(runs: List[Run], workload: str, metric: str) -> List[float]:
    return [run[workload]["e2e"][metric] for run in runs
            if metric in run.get(workload, {}).get("e2e", {})]


def compare(parent: List[Run], change: List[Run],
            specs: List[dict]) -> Tuple[List[Row], List[str]]:
    """Rows for every metric both sides report, worst first, and the
    ``workload/metric`` names only the change reports."""
    rows, new = [], []
    for workload in sorted({w for run in change for w in run}):
        for spec in specs:
            metric, lower = spec["name"], spec["better"] == "lower"
            p_vals = _values(parent, workload, metric)
            c_vals = _values(change, workload, metric)
            if not c_vals:
                continue
            if not p_vals:
                new.append(f"{workload}/{metric}")
                continue
            p, c = statistics.median(p_vals), statistics.median(c_vals)
            worse = (c - p if lower else p - c) / max(abs(p), 1e-12)
            separated = (min(c_vals) > max(p_vals) if lower
                         else max(c_vals) < min(p_vals))
            verdict = "ok" if worse <= spec["bound"] else (
                "REGRESSED" if separated else "unresolved")
            rows.append(Row(workload, metric, p, c, worse, spec["bound"],
                            verdict))
    rows.sort(key=lambda r: r.worse - r.bound, reverse=True)
    return rows, new


def _failed_share(runs: List[Run]) -> Tuple[int, int]:
    return (sum(r["failed"] for run in runs for r in run.values()),
            sum(r["attempted"] for run in runs for r in run.values()))


def run_diff(parent_dir: Path, change_dir: Path) -> int:
    """Execute the gate; returns the process exit code."""
    try:
        parent, change = load_runs(parent_dir), load_runs(change_dir)
    except Unreadable as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    rows, new = compare(parent, change,
                        json.loads(BENCHMARK.read_text())["end_to_end"])
    print(f"bench-diff: {len(parent)} parent vs {len(change)} change "
          f"run(s), medians, bounds from {BENCHMARK.name}")
    print(f"  {'workload':<20}{'metric':<18}{'parent':>12}{'change':>12}"
          f"{'worse':>9}{'bound':>7}  verdict")
    for r in rows:
        print(f"  {r.workload:<20}{r.metric:<18}{r.parent:>12.5g}"
              f"{r.change:>12.5g}{r.worse:>+9.1%}{r.bound:>7.0%}  "
              f"{r.verdict}")
    for name in new:
        print(f"  {name}: new, not in the parent runs — not gated")
    for name in sorted({w for run in parent for w in run}
                       - {w for run in change for w in run}):
        print(f"  {name}: in the parent runs only — not gated")

    failures = [f"{r.workload}/{r.metric} is {r.worse:+.1%} (bound "
                f"{r.bound:.0%}) and every change run is worse"
                for r in rows if r.verdict == "REGRESSED"]
    failures += [f"{w}: a change run reports correct: false" for w in
                 sorted({w for run in change for w, r in run.items()
                         if not r["correct"]})]
    (pf, pa), (cf, ca) = _failed_share(parent), _failed_share(change)
    print(f"  failed/attempted: parent {pf}/{pa}, change {cf}/{ca}")
    if cf * max(pa, 1) > pf * max(ca, 1):
        failures.append(f"the failed share grew from {pf}/{pa} to {cf}/{ca}")
    for failure in failures:
        print(f"bench-diff: FAIL — {failure}")
    if not failures:
        print("bench-diff: OK — no resolved regression.")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.bench_diff",
        description="Gate benchmarks/e2e runs of a change against its "
                    "parent under the BENCHMARK.json bounds.")
    parser.add_argument("parent_dir", type=Path,
                        help="directory of the parent's results.json runs")
    parser.add_argument("change_dir", type=Path,
                        help="directory of the change's results.json runs")
    args = parser.parse_args(argv)
    return run_diff(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
