"""End-to-end + per-layer benchmark of the digital-offset reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--out DIR]
                                  [--record]

Every selected workload (default: all four in ``BENCHMARK.json``) runs
in a fresh child process with its own scratch artifact store under
``benchmarks/e2e/.work/``. The command prints every metric by name with
its unit and sample count, writes ``<out>/results.json``, and prints as
its last stdout line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a second, traced child (``REPRO_OBS=1``, layer wrappers from
``layers.py``) plus ``trace_overhead``. It exits 1 when a correctness
check fails.

``--smoke`` runs every workload at toy sizes; ``--record`` appends the
end-to-end values to ``benchmarks/e2e/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRAJECTORY = HERE / "trajectory.jsonl"

#: Each workload (untraced and traced child) must end within this many
#: seconds; priming the LeNet fixture on a first run is not counted.
DEADLINE_S = 170.0

#: Workloads that start from a copy of the primed LeNet fixture store.
WARM_WORKLOADS = frozenset({"serve-lenet", "engine-adc-lenet"})


# ----------------------------------------------------------------------
# child process: one workload (or the fixture)
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from repro import obs

    work = Path(args.work_dir)
    if args.child == "fixture":
        workloads.build_fixture(work / "store")
        return 0
    if args.trace:
        import layers
        layers.install()
        obs.enable()
        obs.reset()
    ctx = workloads.Context(
        seed=args.seed, seconds=float(args.seconds), smoke=args.smoke,
        work_dir=work,
        fixture_dir=Path(args.fixture) if args.fixture else None)
    with obs.span(f"bench.{args.child}"):
        report = workloads.RUNNERS[args.child](ctx)
    result = report.to_dict()
    result["e2e"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["samples"]["peak_rss_mb"] = 1
    if args.trace:
        values, single_root = layers.analyze(
            args.child, Path(args.out), report.layer_values)
        result["per_layer"] = values
        result["checks"].append({"name": "trace is one rooted span tree",
                                 "ok": single_root, "detail": ""})
        result["attempted"] += 1
        result["failed"] += 0 if single_root else 1
    (work / "result.json").write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent process
# ----------------------------------------------------------------------
def _source_digest() -> str:
    """Hash of the program and the fixture recipe: a changed tree gets a
    freshly primed fixture."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(args: argparse.Namespace, child: str, work: Path, trace: bool,
           fixture: Optional[Path], timeout: float) -> None:
    """Run one child to completion (killed and reaped on timeout)."""
    env = dict(os.environ, REPRO_CACHE=str(work / "store"),
               REPRO_OBS="1" if trace else "0")
    cmd = [sys.executable, str(HERE / "run.py"), "--child", child,
           "--work-dir", str(work), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace)),
           "--out", str(args.out)]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    if args.smoke:
        cmd.append("--smoke")
    # Children log to stderr; their stdout joins it so this process's
    # stdout ends with the result line.
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=timeout)


def _ensure_fixture(args: argparse.Namespace) -> Path:
    """The primed LeNet store for this source tree, built on first use."""
    fixture = WORK / f"fixture-{_source_digest()}"
    if fixture.is_dir():
        return fixture
    WORK.mkdir(parents=True, exist_ok=True)
    for stale in WORK.glob("fixture-*"):
        shutil.rmtree(stale, ignore_errors=True)
    partial = Path(tempfile.mkdtemp(prefix="partial-", dir=WORK))
    try:
        print(f"priming the LeNet fixture in {fixture} (first run only)",
              file=sys.stderr)
        _spawn(args, "fixture", partial, trace=False, fixture=None,
               timeout=600.0)
        (partial / "store").rename(fixture)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return fixture


def _run_child(args: argparse.Namespace, workload: str, trace: bool,
               fixture: Optional[Path], deadline: float) -> Dict[str, Any]:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        _spawn(args, workload, work, trace, fixture,
               timeout=max(10.0, deadline - time.monotonic()))
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    fixture = None
    if workload in WARM_WORKLOADS and not args.smoke:
        fixture = _ensure_fixture(args)
    deadline = time.monotonic() + DEADLINE_S
    result = _run_child(args, workload, False, fixture, deadline)
    if args.trace:
        traced = _run_child(args, workload, True, fixture, deadline)
        base = result["e2e"]["latency_p50_ms"]
        traced["per_layer"]["trace_overhead"] = (
            traced["e2e"]["latency_p50_ms"] / base - 1.0)
        result["per_layer"] = traced["per_layer"]
        result["traced_e2e"] = traced["e2e"]
        result["checks"] += [dict(c, name=f"traced: {c['name']}")
                             for c in traced["checks"]]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["notices"] += traced["notices"]
    result["correct"] = all(c["ok"] for c in result["checks"])
    result["error_rate"] = result["failed"] / max(result["attempted"], 1)
    return result


def _select(values: Dict[str, float], specs: List[Dict[str, Any]],
            workload: str) -> Dict[str, Dict[str, Any]]:
    out = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{workload} did not produce a finite "
                               f"{spec['name']}: {value!r}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def _print_workload(name: str, result: Dict[str, Any],
                    bench: Dict[str, Any], trace: bool) -> None:
    print(f"\n== {name} ==")
    for spec in bench["end_to_end"]:
        metric = spec["name"]
        n = result["samples"].get(metric, 1)
        print(f"  {metric:<30}{result['e2e'][metric]:>16.6g} "
              f"{spec['unit']:<6} n={n}")
    print(f"  {'error_rate':<30}{result['error_rate']:>16.6g} "
          f"{'':<6} {result['failed']}/{result['attempted']}")
    if trace:
        print("  per layer (traced run):")
        for spec in bench["per_layer"]:
            metric = spec["name"]
            print(f"    {metric:<32}{result['per_layer'][metric]:>14.6g} "
                  f"{spec['unit']}")
    for key, value in sorted(result["extra"].items()):
        if not isinstance(value, (dict, list)):
            print(f"  {key:<30}{value:>16.6g}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" — {check['detail']}" if check["detail"] else ""
        print(f"  [{mark}] {check['name']}{detail}")
    for notice in result["notices"]:
        print(f"  note: {notice}")


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _record(args: argparse.Namespace, results: Dict[str, Any]) -> None:
    row = {
        "schema": "repro.bench.e2e.trajectory/v1",
        "git_sha": _git_sha(),
        "created_unix": time.time(),
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "seconds": args.seconds,
        "medians": {name: r["e2e"] for name, r in results.items()},
    }
    with TRAJECTORY.open("a") as fh:
        fh.write(json.dumps(row) + "\n")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the generated inputs (default: 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement length per workload "
                        "(default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1],
                   help="also run a traced child and report per-layer "
                        "metrics (bare --trace means 1)")
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes: every workload in a few seconds")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for results.json and trace artifacts")
    p.add_argument("--record", action="store_true",
                   help="append the end-to-end values to trajectory.jsonl")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    p.add_argument("--fixture", help=argparse.SUPPRESS)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to benchmark ({SRC / 'repro'} is "
              "missing); run it from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    selected = args.workload or known
    unknown = sorted(set(selected) - set(known))
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1 if args.smoke else bench["run_seconds"]
    args.out = str(Path(args.out).resolve())

    results = {w: _run_workload(args, w) for w in selected}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Any] = {}
    for name, result in results.items():
        _print_workload(name, result, bench, bool(args.trace))
        chosen = _select(result["per_layer" if args.trace else "e2e"],
                         bench[kind], name)
        prefix = "" if len(selected) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in chosen.items()})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps({
        "schema": "repro.bench.e2e/v1", "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "trace": bool(args.trace), "created_unix": time.time(),
        "workloads": results}, indent=1))
    print(f"\nresults: {out / 'results.json'}")
    if args.record:
        _record(args, results)
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
