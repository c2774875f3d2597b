"""Manifest assembly, JSONL/JSON round trips, and summary rendering."""

from repro.obs import metrics, trace
from repro.obs.exporters import export_run, write_spans_jsonl
from repro.obs.manifest import (SCHEMA, build_manifest, span_tree_lines,
                                stage_totals)
from repro.obs.summary import render_summary, summarize_file
from repro.obs.trace import span
from repro.utils.serialization import load_json, read_jsonl


def _record_run():
    with span("deploy.vawo", layers=2):
        with span("vawo.search"):
            pass
    with span("deploy.eval"):
        pass
    metrics.inc("vawo.calls", 2)
    metrics.observe("pwt.epoch_loss", 0.25)


class TestStageTotals:
    def test_aggregates_by_name(self, obs_on):
        _record_run()
        totals = stage_totals(trace.TRACER.records())
        assert totals["deploy.vawo"]["count"] == 1
        assert totals["vawo.search"]["total_s"] > 0
        assert totals["deploy.eval"]["max_s"] >= 0

    def test_open_spans_count_but_add_no_time(self):
        totals = stage_totals([{"name": "x", "duration_s": None}])
        assert totals["x"] == {"count": 1, "total_s": 0.0, "max_s": 0.0}


class TestPeakRss:
    """deploy.* and pwt.epoch spans carry the process's peak RSS."""

    def test_stage_spans_record_max_rss_at_exit(self, obs_on):
        with span("deploy.pwt"):
            with span("pwt.epoch", epoch=0):
                with span("vawo.search"):
                    pass
        by_name = {r["name"]: r for r in trace.TRACER.records()}
        peak = trace.max_rss_mb()
        for name in ("deploy.pwt", "pwt.epoch"):
            assert 0 < by_name[name]["attrs"]["max_rss_mb"] <= peak
        assert by_name["pwt.epoch"]["attrs"]["epoch"] == 0
        assert "max_rss_mb" not in by_name["vawo.search"]["attrs"]
        totals = stage_totals(trace.TRACER.records())
        assert totals["deploy.pwt"]["max_rss_mb"] > 0
        assert "max_rss_mb" not in totals["vawo.search"]

    def test_totals_keep_the_highest_peak(self):
        spans = [{"name": "deploy.eval", "duration_s": 1.0,
                  "attrs": {"max_rss_mb": rss}} for rss in (900.0, 1200.0)]
        assert stage_totals(spans)["deploy.eval"]["max_rss_mb"] == 1200.0

    def test_summary_prints_the_peak_column(self):
        doc = {"command": "deploy", "wall_time_s": 2.0, "metrics": {},
               "stages": {"deploy.pwt": {"count": 1, "total_s": 1.5,
                                         "max_s": 1.5, "max_rss_mb": 832.4},
                          "vawo.search": {"count": 2, "total_s": 0.5,
                                          "max_s": 0.3}}}
        text = render_summary(doc)
        assert "peak RSS" in text
        row = next(line for line in text.splitlines()
                   if line.startswith("deploy.pwt"))
        assert row.endswith("832 MB")
        assert "peak RSS" not in render_summary(
            {"command": "deploy", "metrics": {},
             "stages": {"vawo.search": doc["stages"]["vawo.search"]}})

    def test_off_never_reads_rusage(self, obs_off, monkeypatch):
        def fail():
            raise AssertionError("read RSS with tracing off")

        monkeypatch.setattr(trace, "max_rss_mb", fail)
        with span("deploy.pwt"):
            pass
        assert trace.TRACER.records() == []


class TestBuildManifest:
    def test_schema_and_wall_time(self, obs_on):
        _record_run()
        doc = build_manifest("deploy", argv=["deploy", "--profile"],
                             preset="quick", seed=0,
                             spans=trace.TRACER.records(),
                             metrics_snapshot=metrics.REGISTRY.snapshot(),
                             extra={"workload": "lenet"})
        assert doc["schema"] == SCHEMA
        assert doc["preset"] == "quick" and doc["seed"] == 0
        # Wall time sums only the two top-level spans.
        top = [s for s in trace.TRACER.records()
               if s["parent_id"] is None]
        assert abs(doc["wall_time_s"] -
                   sum(s["duration_s"] for s in top)) < 1e-9
        assert doc["metrics"]["counters"]["vawo.calls"] == 2
        assert doc["extra"] == {"workload": "lenet"}
        assert doc["environment"]["python"]

    def test_span_tree_lines_truncates(self):
        spans = [{"name": f"s{i}", "depth": 0, "duration_s": 0.001}
                 for i in range(5)]
        lines = span_tree_lines(spans, max_lines=3)
        assert len(lines) == 4 and "2 more" in lines[-1]


class TestExportRun:
    def test_round_trip_through_serialization(self, obs_on, tmp_path):
        _record_run()
        paths = export_run(tmp_path, "deploy", argv=["deploy"],
                           preset="quick", seed=7, reset=True)
        assert paths["manifest"].name == "deploy-manifest.json"
        assert paths["spans"].name == "deploy-spans.jsonl"
        manifest = load_json(paths["manifest"])
        spans = read_jsonl(paths["spans"])
        assert manifest["schema"] == SCHEMA
        assert manifest["n_spans"] == len(spans) == 3
        assert manifest["spans_file"] == paths["spans"].name
        assert {s["name"] for s in spans} == \
            {"deploy.vawo", "vawo.search", "deploy.eval"}
        # reset=True cleared the process-wide state.
        assert trace.TRACER.records() == []
        assert metrics.REGISTRY.snapshot()["counters"] == {}

    def test_stem_sanitises_command(self, obs_on, tmp_path):
        paths = export_run(tmp_path, "experiment fig5a")
        assert paths["manifest"].name == "experiment-fig5a-manifest.json"

    def test_write_spans_jsonl_empty(self, tmp_path):
        path = write_spans_jsonl(tmp_path / "empty.jsonl", [])
        assert read_jsonl(path) == []


class TestSummary:
    def test_render_contains_stage_table(self, obs_on, tmp_path):
        _record_run()
        paths = export_run(tmp_path, "deploy", preset="quick", seed=1,
                           reset=True)
        text = summarize_file(paths["manifest"])
        assert "run manifest — deploy" in text
        assert "deploy.vawo" in text and "vawo.search" in text
        assert "vawo.calls" in text
        assert "pwt.epoch_loss (hist)" in text

    def test_render_without_spans(self):
        text = render_summary({"command": "train", "stages": {},
                               "metrics": {}})
        assert "no spans recorded" in text
