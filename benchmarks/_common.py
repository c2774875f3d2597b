"""Shared helpers for the benchmark suite.

Every bench regenerates one paper artifact (a table or figure), prints
a paper-vs-measured report, and writes it under ``benchmarks/results/``
so EXPERIMENTS.md can be assembled from the files. Each report now also
emits a machine-readable ``<name>.json`` sidecar (preset, trials,
elapsed wall-time, the report lines, structured measured numbers when
the bench provides them, and the obs metrics snapshot when recording is
on) so result trajectories can be tracked across commits without
parsing fixed-width text, and appends a one-line trend row (name,
elapsed wall-time, git SHA, timestamp) to ``results/history.jsonl`` —
the append-only log ``tools/bench_diff.py --trend`` reads to flag
multi-commit slow creep.

The ``REPRO_BENCH_PRESET`` environment variable selects the workload
scale: ``quick`` (default — minutes, the sizes CI runs) or ``full``
(the sizes EXPERIMENTS.md reports). ``REPRO_BENCH_JOBS`` selects the
parallel trial worker count (``0`` = one per core; results are
bit-identical across worker counts). ``REPRO_BACKEND`` selects the
compute backend the kernels dispatch to (``vectorized`` by default;
every backend is numerically interchangeable, so this too only moves
wall-clock time) — the active name is recorded in every sidecar.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

_T0 = time.perf_counter()

#: Sidecar schema version — bump when the JSON layout changes.
SIDECAR_SCHEMA = "repro.bench.sidecar/v1"

#: History row schema version (``results/history.jsonl``).
HISTORY_SCHEMA = "repro.bench.history/v1"

#: Append-only wall-time log, one JSON row per bench run. CI caches it
#: across builds so ``tools/bench_diff.py --trend`` can flag slow creep
#: that no single-commit comparison crosses the regression threshold on.
HISTORY_FILE = RESULTS_DIR / "history.jsonl"


def preset() -> str:
    value = os.environ.get("REPRO_BENCH_PRESET", "quick")
    if value not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_PRESET must be quick|full, got {value}")
    return value


def trials() -> int:
    """Programming cycles to average over.

    The paper averages 5; the quick preset uses 1 so the whole suite
    regenerates every artifact in well under an hour on one CPU.
    """
    return 5 if preset() == "full" else 1


def jobs() -> int:
    """Parallel trial workers for the experiment runners.

    ``REPRO_BENCH_JOBS`` selects the worker count (``0`` — the default —
    means one per core, capped by the trial count; ``1`` forces serial).
    Trial results are bit-identical across worker counts
    (:mod:`repro.parallel`), so this only moves wall-clock time.
    """
    value = os.environ.get("REPRO_BENCH_JOBS", "0")
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_JOBS must be an integer, got {value!r}")
    if parsed < 0:
        raise ValueError(f"REPRO_BENCH_JOBS must be >= 0, got {parsed}")
    return parsed


def backend() -> str:
    """The compute backend the benched kernels dispatch to.

    Resolved through the :mod:`repro.backend` registry (override, then
    ``REPRO_BACKEND``, then the built-in default), so sidecars record
    which kernel set produced their timings.
    """
    from repro.backend import default_backend_name

    return default_backend_name()


def _jsonable(value):
    """Coerce dataclasses (rows) and mappings into JSON-able structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report(name: str, lines, data=None, elapsed_s=None) -> str:
    """Print a report; persist ``<name>.txt`` and a ``<name>.json`` sidecar.

    ``data`` (optional) is the bench's structured measured numbers —
    a list of row dataclasses/dicts or a mapping; it lands in the
    sidecar unchanged (dataclasses converted to dicts) so downstream
    tooling never has to parse the fixed-width text. ``elapsed_s``
    (optional) overrides the recorded wall time — microbenchmarks pass
    their measured mean so the ``bench-regress`` gate compares kernel
    time, not process uptime.
    """
    from repro.obs import enabled as obs_enabled
    from repro.obs import metrics as obs_metrics
    from repro.utils.serialization import save_json

    text = "\n".join(lines) if not isinstance(lines, str) else lines
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    sidecar = {
        "schema": SIDECAR_SCHEMA,
        "name": name,
        "preset": preset(),
        "trials": trials(),
        "jobs": jobs(),
        "backend": backend(),
        "elapsed_s": (float(elapsed_s) if elapsed_s is not None
                      else time.perf_counter() - _T0),
        "created_unix": time.time(),
        "lines": text.splitlines(),
        "data": _jsonable(data) if data is not None else None,
        "metrics": (obs_metrics.REGISTRY.snapshot()
                    if obs_enabled() else None),
    }
    save_json(RESULTS_DIR / f"{name}.json", sidecar)
    _append_history(sidecar)
    print(f"\n{text}")
    return text


def _append_history(sidecar: dict) -> None:
    """Append one trend row for this run to ``results/history.jsonl``.

    Rows carry only the fields the ``--trend`` gate groups and compares
    on (plus the git SHA and timestamp that localize a slowdown), so
    the file stays small enough to cache across hundreds of CI runs.
    """
    import json

    from repro.obs.manifest import git_revision

    row = {
        "schema": HISTORY_SCHEMA,
        "name": sidecar["name"],
        "preset": sidecar["preset"],
        "backend": sidecar["backend"],
        "jobs": sidecar["jobs"],
        "trials": sidecar["trials"],
        "elapsed_s": sidecar["elapsed_s"],
        "git_sha": git_revision(),
        "created_unix": sidecar["created_unix"],
    }
    with open(HISTORY_FILE, "a") as fh:
        fh.write(json.dumps(row) + "\n")


def fmt_pct(x: float) -> str:
    return f"{x:7.2%}"
