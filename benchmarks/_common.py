"""Shared helpers for the benchmark suite.

Every bench regenerates one paper artifact (a table or figure), prints
a paper-vs-measured report, and writes it under ``benchmarks/results/``
so EXPERIMENTS.md can be assembled from the files. Each report also
emits a machine-readable ``<name>.json`` sidecar (preset, trials, the
report lines, structured measured numbers when the bench provides them,
and the obs metrics snapshot when recording is on) so results can be
compared across commits without parsing fixed-width text. Speed is
tracked by ``benchmarks/e2e``, not by these sidecars.

The ``REPRO_BENCH_PRESET`` environment variable selects the workload
scale: ``quick`` (default — minutes, the sizes CI runs) or ``full``
(the sizes EXPERIMENTS.md reports). ``REPRO_BENCH_JOBS`` selects the
parallel trial worker count (``0`` = one per core; results are
bit-identical across worker counts).
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Sidecar schema version — bump when the JSON layout changes.
#: v2: the wall-time field ``elapsed_s`` is gone.
#: v3: the ``backend`` field is gone (the library has one kernel set).
SIDECAR_SCHEMA = "repro.bench.sidecar/v3"


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


def _jsonable(value):
    """Coerce dataclasses (rows) and mappings into JSON-able structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report(name: str, lines, data=None) -> str:
    """Print a report; persist ``<name>.txt`` and a ``<name>.json`` sidecar.

    ``data`` (optional) is the bench's structured measured numbers —
    a list of row dataclasses/dicts or a mapping; it lands in the
    sidecar unchanged (dataclasses converted to dicts) so downstream
    tooling never has to parse the fixed-width text.
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
        "created_unix": time.time(),
        "lines": text.splitlines(),
        "data": _jsonable(data) if data is not None else None,
        "metrics": (obs_metrics.REGISTRY.snapshot()
                    if obs_enabled() else None),
    }
    save_json(RESULTS_DIR / f"{name}.json", sidecar)
    print(f"\n{text}")
    return text


def fmt_pct(x: float) -> str:
    return f"{x:7.2%}"
