"""The benchmark-regression gate (``python -m tools.bench_diff``)."""

import json

import pytest

from tools.bench_diff import (HISTORY_SCHEMA, SIDECAR_SCHEMA, compare,
                              load_history, load_sidecars, main, run_diff,
                              run_trend, trend_verdicts)


def write_sidecar(directory, name, elapsed_s, schema=SIDECAR_SCHEMA,
                  backend=None, **extra):
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"schema": schema, "name": name, "preset": "quick",
               "elapsed_s": elapsed_s, **extra}
    if backend is not None:
        payload["backend"] = backend
    (directory / f"{name}.json").write_text(json.dumps(payload))


def gate(tmp_path, **kwargs):
    args = dict(baseline_dir=tmp_path / "base", current_dir=tmp_path / "cur",
                max_slowdown=1.5, min_baseline_s=2.0,
                require_baseline=False)
    args.update(kwargs)
    return run_diff(**args)


class TestLoadSidecars:
    def test_parses_and_skips_foreign_json(self, tmp_path):
        write_sidecar(tmp_path, "fig5a", 10.0)
        (tmp_path / "notes.json").write_text(json.dumps({"foo": 1}))
        (tmp_path / "broken.json").write_text("{nope")
        write_sidecar(tmp_path, "other", 1.0, schema="something/else")
        entries = load_sidecars(tmp_path)
        assert set(entries) == {"fig5a"}
        assert entries["fig5a"].elapsed_s == 10.0

    def test_recurses(self, tmp_path):
        write_sidecar(tmp_path / "nested", "fig5a", 3.0)
        assert set(load_sidecars(tmp_path)) == {"fig5a"}


class TestCompare:
    def test_worst_first_and_flags(self, tmp_path):
        base = {"a": 10.0, "b": 10.0, "tiny": 0.5}
        cur = {"a": 12.0, "b": 20.0, "tiny": 50.0}
        write = lambda d, entries: [write_sidecar(d, n, s)  # noqa: E731
                                    for n, s in entries.items()]
        write(tmp_path / "base", base)
        write(tmp_path / "cur", cur)
        comps = compare(load_sidecars(tmp_path / "base"),
                        load_sidecars(tmp_path / "cur"),
                        max_slowdown=1.5, min_baseline_s=2.0)
        assert [c.name for c in comps] == ["tiny", "b", "a"]
        by = {c.name: c for c in comps}
        assert by["a"].regressed is False
        assert by["b"].regressed is True and by["b"].ratio == 2.0
        # Sub-floor baselines never gate, however bad the ratio looks.
        assert by["tiny"].skipped_short and not by["tiny"].regressed


class TestBackendGating:
    def one_comparison(self, tmp_path, base_backend, cur_backend,
                       **base_extra):
        write_sidecar(tmp_path / "base", "fig5a", 10.0,
                      backend=base_backend, **base_extra)
        write_sidecar(tmp_path / "cur", "fig5a", 50.0,
                      backend=cur_backend)
        comps = compare(load_sidecars(tmp_path / "base"),
                        load_sidecars(tmp_path / "cur"),
                        max_slowdown=1.5, min_baseline_s=2.0)
        assert len(comps) == 1
        return comps[0]

    def test_backend_mismatch_never_regresses(self, tmp_path):
        c = self.one_comparison(tmp_path, "vectorized", "reference")
        assert c.skipped_backend and not c.regressed

    def test_same_backend_still_gates(self, tmp_path):
        c = self.one_comparison(tmp_path, "vectorized", "vectorized")
        assert not c.skipped_backend and c.regressed

    def test_same_offload_tier_still_gates(self, tmp_path):
        # Legacy sidecars may still carry an offload_tier field; it is
        # ignored, so they parse and gate as before.
        c = self.one_comparison(tmp_path, "vectorized", "vectorized",
                                offload_tier="blas")
        assert not c.skipped_backend and c.regressed

    def test_untiered_sidecars_compare_with_tiered(self, tmp_path):
        # A current run without the legacy field still gates against a
        # baseline that has it, and the other way round.
        write_sidecar(tmp_path / "base", "fig5a", 10.0,
                      backend="vectorized")
        write_sidecar(tmp_path / "cur", "fig5a", 50.0,
                      backend="vectorized", offload_tier="numba")
        comps = compare(load_sidecars(tmp_path / "base"),
                        load_sidecars(tmp_path / "cur"),
                        max_slowdown=1.5, min_baseline_s=2.0)
        assert not comps[0].skipped_backend and comps[0].regressed

    def test_untagged_sidecars_compare_with_anything(self, tmp_path):
        # Pre-upgrade baselines lack the backend field; they must keep
        # gating rather than silently skipping every comparison.
        for base_backend, cur_backend in ((None, "reference"),
                                          ("vectorized", None),
                                          (None, None)):
            c = self.one_comparison(tmp_path, base_backend, cur_backend)
            assert not c.skipped_backend and c.regressed

    def test_gate_passes_on_backend_switch(self, tmp_path, capsys):
        write_sidecar(tmp_path / "base", "fig5a", 10.0,
                      backend="vectorized")
        write_sidecar(tmp_path / "cur", "fig5a", 99.0,
                      backend="reference")
        assert gate(tmp_path) == 0
        assert "backend-skip" in capsys.readouterr().out


class TestGate:
    def test_ok_run_passes(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        write_sidecar(tmp_path / "cur", "fig5a", 12.0)
        assert gate(tmp_path) == 0

    def test_regression_fails(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        write_sidecar(tmp_path / "cur", "fig5a", 20.0)
        assert gate(tmp_path) == 1

    def test_missing_baseline_passes_by_default(self, tmp_path):
        write_sidecar(tmp_path / "cur", "fig5a", 20.0)
        assert gate(tmp_path) == 0

    def test_missing_baseline_fails_when_required(self, tmp_path):
        write_sidecar(tmp_path / "cur", "fig5a", 20.0)
        assert gate(tmp_path, require_baseline=True) == 2

    def test_empty_baseline_dir_passes_by_default(self, tmp_path):
        (tmp_path / "base").mkdir()
        write_sidecar(tmp_path / "cur", "fig5a", 20.0)
        assert gate(tmp_path) == 0
        assert gate(tmp_path, require_baseline=True) == 2

    def test_missing_current_is_an_error(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        assert gate(tmp_path) == 2

    def test_new_and_removed_benches_do_not_gate(self, tmp_path, capsys):
        write_sidecar(tmp_path / "base", "gone", 10.0)
        write_sidecar(tmp_path / "cur", "fresh", 10.0)
        assert gate(tmp_path) == 0
        out = capsys.readouterr().out
        assert "fresh" in out and "gone" in out

    def test_raised_limit_tolerates_slowdown(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        write_sidecar(tmp_path / "cur", "fig5a", 20.0)
        assert gate(tmp_path, max_slowdown=3.0) == 0


def history_rows(elapsed, name="fig5a", preset="quick",
                 backend="vectorized"):
    return [{"schema": HISTORY_SCHEMA, "name": name, "preset": preset,
             "backend": backend, "elapsed_s": e, "git_sha": f"sha{i}",
             "created_unix": 1000.0 + i}
            for i, e in enumerate(elapsed)]


def write_history(tmp_path, rows):
    path = tmp_path / "history.jsonl"
    with open(path, "a") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def trend(tmp_path, rows, **kwargs):
    args = dict(window=4, step_ratio=1.02, max_slowdown=1.5,
                min_baseline_s=2.0)
    args.update(kwargs)
    return run_trend(write_history(tmp_path, rows), **args)


class TestTrendGate:
    def test_monotonic_creep_fails(self, tmp_path, capsys):
        # Each step is ~1.16x — far under the 1.5x pairwise limit — but
        # the cumulative drift is 1.57x: exactly the blind spot.
        assert trend(tmp_path, history_rows([10.0, 11.6, 13.5, 15.7])) == 1
        out = capsys.readouterr().out
        assert "TRENDING UP" in out and "sha0" in out

    def test_single_step_regression_does_not_trend(self, tmp_path):
        # One bad commit is the pairwise gate's job, not a trend.
        assert trend(tmp_path, history_rows([10.0, 10.0, 10.0, 17.0])) == 0

    def test_dip_breaks_the_trend(self, tmp_path):
        assert trend(tmp_path, history_rows([10.0, 11.6, 9.0, 15.7])) == 0

    def test_cumulative_under_limit_passes(self, tmp_path):
        assert trend(tmp_path, history_rows([10.0, 10.4, 10.9, 11.4])) == 0

    def test_short_series_passes(self, tmp_path):
        assert trend(tmp_path, history_rows([10.0, 16.0])) == 0

    def test_sub_floor_series_never_flags(self, tmp_path):
        assert trend(tmp_path, history_rows([0.10, 0.15, 0.22, 0.40])) == 0

    def test_only_trailing_window_considered(self, tmp_path):
        # Ancient creep followed by a stable plateau must not flag.
        rows = history_rows([5.0, 7.0, 10.0, 15.0, 15.0, 15.0, 15.0])
        assert trend(tmp_path, rows) == 0

    def test_series_split_by_preset_and_backend(self, tmp_path):
        # A preset or backend switch mid-history starts a new series —
        # the scale jump must not read as a slowdown.
        rows = (history_rows([10.0, 10.0]) +
                history_rows([40.0, 41.0], preset="full") +
                history_rows([90.0, 91.0], backend="reference"))
        # A legacy offload_tier field does not split a series.
        rows[0]["offload_tier"] = "blas"
        verdicts = trend_verdicts(rows, window=4, step_ratio=1.02,
                                  max_slowdown=1.5, min_baseline_s=2.0)
        assert len(verdicts) == 3
        assert not any(v.flagged for v in verdicts)

    def test_missing_history_passes(self, tmp_path):
        assert run_trend(tmp_path / "absent.jsonl", window=4,
                         step_ratio=1.02, max_slowdown=1.5,
                         min_baseline_s=2.0) == 0

    def test_malformed_and_foreign_lines_skipped(self, tmp_path):
        path = write_history(tmp_path, history_rows([10.0, 11.0]))
        with open(path, "a") as fh:
            fh.write("{torn\n")
            fh.write(json.dumps({"schema": "other/v1", "name": "x"}) + "\n")
            fh.write(json.dumps({"schema": HISTORY_SCHEMA,
                                 "name": "bad"}) + "\n")
        rows = load_history(path)
        assert len(rows) == 2
        assert all(r["name"] == "fig5a" for r in rows)


class TestMain:
    def run_main(self, tmp_path, *extra):
        return main(["--baseline", str(tmp_path / "base"),
                     "--current", str(tmp_path / "cur"), *extra])

    def test_cli_roundtrip(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        write_sidecar(tmp_path / "cur", "fig5a", 11.0)
        assert self.run_main(tmp_path) == 0
        write_sidecar(tmp_path / "cur", "fig5a", 99.0)
        assert self.run_main(tmp_path, "--max-slowdown", "1.5") == 1

    def test_invalid_flags_rejected(self, tmp_path):
        write_sidecar(tmp_path / "base", "fig5a", 10.0)
        write_sidecar(tmp_path / "cur", "fig5a", 10.0)
        assert self.run_main(tmp_path, "--max-slowdown", "0") == 2
        assert self.run_main(tmp_path, "--min-baseline-s", "-1") == 2

    def test_required_args(self):
        with pytest.raises(SystemExit):
            main([])

    def test_baseline_without_current_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--baseline", str(tmp_path)])

    def test_trend_alone(self, tmp_path):
        path = write_history(tmp_path, history_rows([10.0, 11.6, 13.5,
                                                     15.7]))
        assert main(["--trend", str(path)]) == 1
        assert main(["--trend", str(path), "--trend-window", "3",
                     "--max-slowdown", "2.0"]) == 0

    def test_trend_window_floor(self, tmp_path):
        path = write_history(tmp_path, history_rows([10.0]))
        assert main(["--trend", str(path), "--trend-window", "2"]) == 2

    def test_pairwise_and_trend_compose(self, tmp_path):
        # Pairwise passes (1.16x step) but the trend catches the creep.
        write_sidecar(tmp_path / "base", "fig5a", 13.5)
        write_sidecar(tmp_path / "cur", "fig5a", 15.7)
        path = write_history(tmp_path, history_rows([10.0, 11.6, 13.5,
                                                     15.7]))
        assert self.run_main(tmp_path) == 0
        assert self.run_main(tmp_path, "--trend", str(path)) == 1


class TestHistoryAppend:
    """benchmarks/_common.py writes rows the --trend gate reads back."""

    def _load_common(self, tmp_path, monkeypatch):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "_bench_common_under_test", root / "benchmarks/_common.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(module, "HISTORY_FILE",
                            tmp_path / "history.jsonl")
        return module

    def test_report_appends_history_row(self, tmp_path, monkeypatch,
                                        capsys):
        common = self._load_common(tmp_path, monkeypatch)
        common.report("fig5a", ["line one"], elapsed_s=10.0)
        common.report("fig5a", ["line two"], elapsed_s=11.0)
        capsys.readouterr()
        rows = load_history(tmp_path / "history.jsonl")
        assert [r["elapsed_s"] for r in rows] == [10.0, 11.0]
        row = rows[0]
        assert row["schema"] == HISTORY_SCHEMA
        assert row["name"] == "fig5a" and row["preset"] == "quick"
        assert set(row) >= {"backend", "jobs", "trials", "git_sha",
                            "created_unix"}
        # The rows feed straight into the trend gate.
        verdicts = trend_verdicts(rows, window=4, step_ratio=1.02,
                                  max_slowdown=1.5, min_baseline_s=2.0)
        assert len(verdicts) == 1 and not verdicts[0].flagged
