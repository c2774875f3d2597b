"""Structured run manifests: one JSON document describing a whole run.

A manifest captures everything needed to interpret (and re-run) an
instrumented invocation: the command and its arguments, preset/seed,
the git revision the code ran at, the library/interpreter environment,
per-stage wall-time totals aggregated from the span records, and the
final metric snapshot. The schema is versioned so downstream tooling
(``repro obs summarize``, CI artifact diffing) can evolve safely.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

SCHEMA = "repro.obs.manifest/v1"

#: Environment variables worth recording (reproducibility knobs).
_ENV_KEYS = ("REPRO_OBS", "REPRO_DEBUG", "REPRO_LOG_LEVEL",
             "REPRO_BENCH_PRESET")


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current ``git rev-parse HEAD``, or ``None`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def environment_info() -> Dict[str, Any]:
    """Interpreter/library/platform facts plus the ``REPRO_*`` env."""
    import numpy

    from repro import __version__

    return {
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env": {k: os.environ[k] for k in _ENV_KEYS if k in os.environ},
    }


def fold_span(totals: Dict[str, Dict[str, Any]],
              record: Mapping[str, Any]) -> None:
    """Fold one span record into per-name ``totals`` (in place).

    Each entry is ``{count, total_s, max_s}``, plus ``max_rss_mb`` (the
    highest process peak RSS any of the name's spans recorded at exit)
    when the spans carry one. A still-open span (``duration_s`` is
    None) is counted but contributes no time.
    """
    entry = totals.setdefault(record["name"],
                              {"count": 0, "total_s": 0.0, "max_s": 0.0})
    entry["count"] += 1
    duration = record.get("duration_s")
    if duration is not None:
        entry["total_s"] += duration
        entry["max_s"] = max(entry["max_s"], duration)
    rss = (record.get("attrs") or {}).get("max_rss_mb")
    if rss is not None:
        entry["max_rss_mb"] = max(entry.get("max_rss_mb", 0.0), rss)


def stage_totals(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate span records into per-name totals (see :func:`fold_span`)."""
    totals: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        fold_span(totals, record)
    return totals


def build_manifest(command: str,
                   argv: Optional[Sequence[str]] = None,
                   preset: Optional[str] = None,
                   seed: Optional[int] = None,
                   spans: Optional[Sequence[Mapping[str, Any]]] = None,
                   metrics_snapshot: Optional[Mapping[str, Any]] = None,
                   spans_file: Optional[str] = None,
                   extra: Optional[Mapping[str, Any]] = None,
                   stream_summary: Optional[Mapping[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """Assemble the manifest document (plain JSON-able dict).

    ``stream_summary`` (a :meth:`repro.obs.trace.SpanSink.summary`
    document) substitutes for ``spans`` when the run streamed them to
    disk — the span-derived fields come from the sink's running
    aggregates instead of an in-memory pass.
    """
    if stream_summary is not None:
        n_spans = int(stream_summary.get("n_spans", 0))
        wall_time_s = float(stream_summary.get("wall_time_s", 0.0))
        stages: Dict[str, Dict[str, Any]] = {
            name: dict(entry)
            for name, entry in stream_summary.get("stages", {}).items()}
    else:
        span_list = list(spans) if spans is not None else []
        closed = [s for s in span_list if s.get("duration_s") is not None]
        top_level = [s for s in closed if s.get("parent_id") is None]
        n_spans = len(span_list)
        wall_time_s = sum(s["duration_s"] for s in top_level)
        stages = stage_totals(span_list)
    return {
        "schema": SCHEMA,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "preset": preset,
        "seed": seed,
        "created_unix": time.time(),
        "git_revision": git_revision(),
        "environment": environment_info(),
        "n_spans": n_spans,
        "wall_time_s": wall_time_s,
        "stages": stages,
        "metrics": dict(metrics_snapshot) if metrics_snapshot else
                   {"counters": {}, "gauges": {}, "histograms": {}},
        "spans_file": spans_file,
        "extra": dict(extra) if extra else {},
    }


def span_tree_lines(spans: Sequence[Mapping[str, Any]],
                    max_lines: int = 200) -> List[str]:
    """Indented one-line-per-span rendering (debugging aid)."""
    lines = []
    for record in spans[:max_lines]:
        duration = record.get("duration_s")
        shown = f"{duration * 1e3:9.2f} ms" if duration is not None else "     open"
        lines.append(f"{shown}  {'  ' * int(record.get('depth', 0))}"
                     f"{record['name']}")
    if len(spans) > max_lines:
        lines.append(f"... {len(spans) - max_lines} more span(s)")
    return lines
