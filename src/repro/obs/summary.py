"""Human-readable rendering of a run manifest (``repro obs summarize``).

Turns the per-stage wall-time totals and the metric snapshot of a
manifest JSON into fixed-width tables. :func:`summarize_path` accepts
any obs artifact — a manifest JSON, a raw spans JSONL (including the
stream a crashed run left mid-write), or a whole ``--obs-dir``
directory — and renders the same summary for all of them: when no
manifest exists the span stream is aggregated on the fly, so streamed
and post-hoc exports read identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Mapping, Optional

from repro.utils.serialization import PathLike, load_json


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:9.3f} s "
    return f"{value * 1e3:9.3f} ms"


def _fmt_hist(hist: Mapping[str, Any]) -> str:
    if not hist.get("count"):
        return "n=0"
    parts = [f"n={hist.get('count', 0)}", f"mean={hist.get('mean'):.4g}",
             f"last={hist.get('last'):.4g}"]
    for key in ("p50", "p95", "p99"):
        value = hist.get(key)
        if value is not None:
            parts.append(f"{key}={value:.4g}")
    return " ".join(parts)


def render_summary(manifest: Mapping[str, Any]) -> str:
    """Render one manifest as a per-stage time table + metric totals."""
    lines: List[str] = []
    command = manifest.get("command", "?")
    lines.append(f"run manifest — {command}")
    for key in ("preset", "seed", "git_revision", "wall_time_s"):
        value = manifest.get(key)
        if value is not None:
            shown = f"{value:.3f}" if key == "wall_time_s" else str(value)
            lines.append(f"  {key}: {shown}")
    env = manifest.get("environment") or {}
    if env:
        lines.append(f"  repro {env.get('repro_version', '?')} / "
                     f"python {env.get('python', '?')} / "
                     f"numpy {env.get('numpy', '?')}")

    stages = manifest.get("stages") or {}
    wall = manifest.get("wall_time_s") or 0.0
    if stages:
        # Peak RSS at span exit, recorded by deploy.* and pwt.epoch.
        with_rss = any("max_rss_mb" in entry for entry in stages.values())
        lines.append("")
        lines.append(f"{'stage':<32}{'calls':>7}{'total':>13}{'share':>8}"
                     + (f"{'peak RSS':>12}" if with_rss else ""))
        order = sorted(stages.items(),
                       key=lambda item: item[1].get("total_s", 0.0),
                       reverse=True)
        for name, entry in order:
            total = entry.get("total_s", 0.0)
            share = f"{total / wall:6.1%}" if wall > 0 else "     -"
            rss = entry.get("max_rss_mb")
            lines.append(f"{name:<32}{entry.get('count', 0):>7}"
                         f"{_fmt_seconds(total):>13}{share:>8}"
                         + (f"{rss:>9.0f} MB" if rss is not None else ""))
    else:
        lines.append("")
        lines.append("(no spans recorded — run with REPRO_OBS=1 or --profile)")

    metric_block = manifest.get("metrics") or {}
    counters = metric_block.get("counters") or {}
    gauges = metric_block.get("gauges") or {}
    histograms = metric_block.get("histograms") or {}
    if counters or gauges or histograms:
        lines.append("")
        lines.append(f"{'metric':<40}{'value':>18}")
        for name in sorted(counters):
            lines.append(f"{name:<40}{counters[name]:>18g}")
        for name in sorted(gauges):
            lines.append(f"{name + ' (gauge)':<40}{gauges[name]:>18g}")
        for name in sorted(histograms):
            lines.append(f"{name + ' (hist)':<40}  "
                         f"{_fmt_hist(histograms[name])}")
    return "\n".join(lines)


def summarize_file(path: PathLike) -> str:
    """Load a manifest JSON from ``path`` and render its summary."""
    return render_summary(load_json(path))


def manifest_from_spans(path: PathLike) -> Mapping[str, Any]:
    """Aggregate a raw spans JSONL into an on-the-fly manifest.

    This is the crash path: a run that died mid-stream leaves only the
    ``Tracer.stream_to`` JSONL behind. The lenient loader drops a torn
    final line, and still-open spans (no ``duration_s``) count but add
    no time — so ``summarize`` reports the same tables it would have
    from a clean export.
    """
    from repro.obs.analysis import load_trace
    from repro.obs.manifest import build_manifest

    return build_manifest(command=f"<spans:{Path(path).name}>",
                          spans=load_trace(path))


def summarize_path(path: PathLike) -> str:
    """Summarize any obs artifact: manifest, spans JSONL, or obs dir.

    Directories prefer their manifest when one exists and fall back to
    the streamed span file otherwise (interrupted run); a bare
    ``.jsonl`` path always takes the span-aggregation route. When a
    directory holds artifacts from several commands (``deploy-…`` and
    ``serve-…`` side by side), the most recently written run wins —
    same rule as the ``repro obs`` analysis resolvers.
    """
    from repro.obs.analysis import _pick_match, resolve_manifest_path

    p = Path(path)
    manifest: Optional[Path] = None
    if p.is_dir():
        try:
            manifest = resolve_manifest_path(p)
        except FileNotFoundError:
            spans = _pick_match(p, "*-spans.jsonl")
            if spans is None:
                raise
            p = spans
    elif not p.name.endswith(".jsonl"):
        manifest = p
    if manifest is not None:
        return summarize_file(manifest)
    return render_summary(manifest_from_spans(p))
