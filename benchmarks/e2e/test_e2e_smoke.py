"""Smoke test of the end-to-end benchmark: every workload at toy sizes.

Runs ``run.py --smoke --trace`` once (each workload untraced, then
traced) and checks the output contract: every metric named in
``BENCHMARK.json`` comes out finite, each traced workload is one rooted
span tree, and together the traces record every span a per-layer metric
is computed from.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def test_smoke_trace_emits_every_metric(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-4000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    from repro.obs.analysis import build_tree, load_trace

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads((out / "results.json").read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in bench["workloads"])
    recorded = set()
    for name, result in results.items():
        for kind, key in (("end_to_end", "e2e"), ("per_layer", "per_layer")):
            for spec in bench[kind]:
                value = result[key][spec["name"]]
                assert math.isfinite(value), (name, spec["name"], value)
        spans = load_trace(out / f"{name}-spans.jsonl")
        assert build_tree(spans).is_single_rooted(), name
        recorded |= {record["name"] for record in spans}
    sources = {span for span, _ in layers.SPAN_METRICS.values()}
    assert sources <= recorded, sorted(sources - recorded)
