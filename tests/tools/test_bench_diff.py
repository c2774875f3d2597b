"""The parent-vs-change benchmark gate (``python -m tools.bench_diff``)."""

import json

import pytest

import tools.bench_diff as bench_diff
from tools.bench_diff import compare, load_runs, main, run_diff

#: A healthy run's end-to-end values, one per BENCHMARK.json metric.
BASE = {"setup_s": 1.0, "latency_p50_ms": 10.0, "latency_tail_ms": 20.0,
        "throughput_per_s": 1000.0, "peak_rss_mb": 100.0}

SPECS = json.loads(bench_diff.BENCHMARK.read_text())["end_to_end"]


def write_run(path, workloads=None, correct=True, failed=0, attempted=100):
    """One ``results.json``; ``workloads`` maps a name to metric overrides."""
    workloads = {"serve-lenet": {}} if workloads is None else workloads
    path.mkdir(parents=True, exist_ok=True)
    (path / "results.json").write_text(json.dumps({
        "schema": "repro.bench.e2e/v1",
        "workloads": {name: {"e2e": {**BASE, **overrides},
                             "correct": correct, "failed": failed,
                             "attempted": attempted}
                      for name, overrides in workloads.items()}}))


def write_side(directory, series, workload="serve-lenet", **kwargs):
    """Runs ``run0``, ``run1``, ... under ``directory``, one per entry of
    ``series`` (metric overrides for ``workload``)."""
    for i, overrides in enumerate(series):
        write_run(directory / f"run{i}", {workload: overrides}, **kwargs)


def gate(tmp_path):
    return run_diff(tmp_path / "parent", tmp_path / "change")


def three(metric, *values):
    return [{metric: v} for v in values]


class TestLoadSidecars:
    def test_parses_and_skips_foreign_json(self, tmp_path):
        write_run(tmp_path / "run0")
        (tmp_path / "run0" / "notes.json").write_text("{not json")
        (tmp_path / "trajectory.json").write_text(json.dumps({"foo": 1}))
        runs = load_runs(tmp_path)
        assert len(runs) == 1
        assert runs[0]["serve-lenet"]["e2e"] == BASE

    def test_recurses(self, tmp_path):
        write_run(tmp_path / "parent" / "a" / "run0")
        write_run(tmp_path / "parent" / "run1")
        assert len(load_runs(tmp_path / "parent")) == 2


class TestCompare:
    def test_worst_first_and_flags(self, tmp_path):
        write_side(tmp_path / "p", [{}, {}, {}])
        # setup_s: +50%, every run worse (REGRESSED); latency_tail_ms:
        # +40% median but one change run beats a parent run (unresolved);
        # throughput: 10% lower, under the bound (ok).
        write_side(tmp_path / "c", [
            {"setup_s": 1.5, "latency_tail_ms": 28.0,
             "throughput_per_s": 900.0},
            {"setup_s": 1.6, "latency_tail_ms": 19.0,
             "throughput_per_s": 900.0},
            {"setup_s": 1.4, "latency_tail_ms": 29.0,
             "throughput_per_s": 900.0}])
        rows, new = compare(load_runs(tmp_path / "p"),
                            load_runs(tmp_path / "c"), SPECS)
        assert new == []
        assert [r.metric for r in rows[:2]] == ["setup_s", "latency_tail_ms"]
        by = {r.metric: r for r in rows}
        assert by["setup_s"].verdict == "REGRESSED"
        assert by["setup_s"].worse == pytest.approx(0.5)
        assert by["latency_tail_ms"].verdict == "unresolved"
        assert by["throughput_per_s"].verdict == "ok"
        assert by["throughput_per_s"].worse == pytest.approx(0.1)
        assert by["peak_rss_mb"].worse == 0.0


class TestGate:
    def test_ok_run_passes(self, tmp_path, capsys):
        write_side(tmp_path / "parent", three("latency_p50_ms", 10, 11, 9))
        write_side(tmp_path / "change", three("latency_p50_ms", 11, 12, 10))
        assert gate(tmp_path) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        # Lower is better: the change's latency is 50% up in every run.
        write_side(tmp_path / "parent", three("latency_p50_ms", 10, 11, 9))
        write_side(tmp_path / "change", three("latency_p50_ms", 15, 16, 14))
        assert gate(tmp_path) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "serve-lenet/latency_p50_ms" in out

    def test_higher_is_better_regression_fails(self, tmp_path, capsys):
        write_side(tmp_path / "parent",
                   three("throughput_per_s", 1000, 1100, 950))
        write_side(tmp_path / "change",
                   three("throughput_per_s", 600, 700, 650))
        assert gate(tmp_path) == 1
        assert "+35.0%" in capsys.readouterr().out     # (1000 - 650) / 1000
        # The same move upwards is a gain, never a regression.
        assert run_diff(tmp_path / "change", tmp_path / "parent") == 0

    def test_overlapping_runs_are_unresolved(self, tmp_path, capsys):
        # The change's median is 40% worse, but its best run beats the
        # parent's worst: too noisy to call, so it is printed, not failed.
        write_side(tmp_path / "parent", three("latency_p50_ms", 10, 10, 13))
        write_side(tmp_path / "change", three("latency_p50_ms", 14, 12, 15))
        assert gate(tmp_path) == 0
        out = capsys.readouterr().out
        assert "unresolved" in out and "REGRESSED" not in out

    def test_raised_limit_tolerates_slowdown(self, tmp_path, monkeypatch):
        # Bounds are per metric and come from BENCHMARK.json: a clean 15%
        # slowdown passes a timing metric's 0.24 bound but fails the
        # 0.1 bound of peak_rss_mb, until that bound is raised.
        bounds = {s["name"]: s["bound"] for s in SPECS}
        assert bounds["latency_p50_ms"] > 0.15 > bounds["peak_rss_mb"]
        write_side(tmp_path / "parent", [{}, {}, {}])
        write_side(tmp_path / "change",
                   three("latency_p50_ms", 11.5, 11.5, 11.5))
        assert gate(tmp_path) == 0
        write_side(tmp_path / "change", three("peak_rss_mb", 115, 115, 115))
        assert gate(tmp_path) == 1
        raised = tmp_path / "BENCHMARK.json"
        raised.write_text(json.dumps({"end_to_end": [
            dict(s, bound=0.2) for s in SPECS]}))
        monkeypatch.setattr(bench_diff, "BENCHMARK", raised)
        assert gate(tmp_path) == 0

    def test_larger_failed_share_fails(self, tmp_path, capsys):
        write_side(tmp_path / "parent", [{}, {}, {}], failed=1,
                   attempted=1000)
        write_side(tmp_path / "change", [{}, {}, {}], failed=1,
                   attempted=1000)
        assert gate(tmp_path) == 0
        write_side(tmp_path / "change", [{}, {}, {}], failed=2,
                   attempted=1000)
        assert gate(tmp_path) == 1
        assert "failed share grew" in capsys.readouterr().out

    def test_incorrect_change_run_fails(self, tmp_path, capsys):
        write_side(tmp_path / "parent", [{}, {}, {}])
        write_side(tmp_path / "change", [{}, {}, {}])
        write_run(tmp_path / "change" / "run1", correct=False)
        assert gate(tmp_path) == 1
        assert "correct: false" in capsys.readouterr().out
        # An incorrect parent run does not fail the change.
        assert run_diff(tmp_path / "change", tmp_path / "parent") == 0

    def test_missing_baseline_fails_when_required(self, tmp_path):
        # The gate always builds its own parent runs, so a missing
        # parent directory is a usage error, never a pass.
        write_side(tmp_path / "change", [{}])
        assert gate(tmp_path) == 2

    def test_missing_current_is_an_error(self, tmp_path):
        write_side(tmp_path / "parent", [{}])
        assert gate(tmp_path) == 2

    def test_empty_dir_is_an_error(self, tmp_path):
        write_side(tmp_path / "parent", [{}])
        (tmp_path / "change").mkdir()
        assert gate(tmp_path) == 2

    @pytest.mark.parametrize("payload", [
        "{torn", "[]", json.dumps({"workloads": []}),
        json.dumps({"workloads": {"serve-lenet": {"e2e": {"setup_s": None}}}}),
    ], ids=["broken-json", "not-an-object", "workloads-list", "null-value"])
    def test_malformed_results_is_an_error(self, tmp_path, payload):
        write_side(tmp_path / "parent", [{}])
        write_side(tmp_path / "change", [{}])
        (tmp_path / "change" / "run0" / "results.json").write_text(payload)
        assert gate(tmp_path) == 2

    def test_new_and_removed_benches_do_not_gate(self, tmp_path, capsys):
        write_run(tmp_path / "parent" / "run0", {"gone": {}})
        write_run(tmp_path / "change" / "run0",
                  {"fresh": {"latency_p50_ms": 1e6}})
        assert gate(tmp_path) == 0
        out = capsys.readouterr().out
        assert "fresh/latency_p50_ms: new" in out
        assert "gone: in the parent runs only" in out


class TestMain:
    def run_main(self, tmp_path, *extra):
        return main([str(tmp_path / "parent"), str(tmp_path / "change"),
                     *extra])

    def test_cli_roundtrip(self, tmp_path):
        write_side(tmp_path / "parent", three("setup_s", 1.0, 1.1, 0.9))
        write_side(tmp_path / "change", three("setup_s", 1.0, 1.05, 0.95))
        assert self.run_main(tmp_path) == 0
        write_side(tmp_path / "change", three("setup_s", 2.0, 2.1, 1.9))
        assert self.run_main(tmp_path) == 1

    def test_invalid_flags_rejected(self, tmp_path):
        # The gate has no tuning flags: bounds live in BENCHMARK.json.
        write_side(tmp_path / "parent", [{}])
        write_side(tmp_path / "change", [{}])
        for flag in (["--max-slowdown", "1.5"], ["--min-baseline-s", "2"],
                     ["--require-baseline"], ["--trend", "history.jsonl"]):
            with pytest.raises(SystemExit) as exc:
                self.run_main(tmp_path, *flag)
            assert exc.value.code == 2

    def test_required_args(self):
        with pytest.raises(SystemExit):
            main([])

    def test_baseline_without_current_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path)])


class TestBenchReport:
    """benchmarks/_common.report writes a text report and a data sidecar,
    with no wall-time field and no history log."""

    def test_report_writes_text_and_data_sidecar(self, tmp_path,
                                                  monkeypatch, capsys):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "_bench_common_under_test", root / "benchmarks/_common.py")
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        common.report("fig5a", ["line one"], data={"acc": 0.5})
        capsys.readouterr()
        assert (tmp_path / "fig5a.txt").read_text() == "line one\n"
        sidecar = json.loads((tmp_path / "fig5a.json").read_text())
        assert sidecar["schema"] == common.SIDECAR_SCHEMA
        assert sidecar["data"] == {"acc": 0.5}
        assert "elapsed_s" not in sidecar
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig5a.json", "fig5a.txt"]
        with pytest.raises(TypeError):
            common.report("fig5a", ["x"], elapsed_s=1.0)
