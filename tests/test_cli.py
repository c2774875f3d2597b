"""Command-line interface."""

import pytest

from repro.cli import main


class TestParsing:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "vawo*" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "-m", "16", "128"]) == 0
        out = capsys.readouterr().out
        assert "m=16" in out and "m=128" in out
        assert "mm^2" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "--name", "table2"]) == 0
        out = capsys.readouterr().out
        assert "area" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["deploy", "--method", "magic"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestEndToEnd:
    """Exercise train + deploy on a cached quick workload.

    Uses the shared on-disk cache, so after the first bench/test run
    these are fast.
    """

    def test_train_then_deploy(self, capsys):
        assert main(["train", "--workload", "lenet", "--preset", "quick",
                     "--seed", "0"]) == 0
        assert "float accuracy" in capsys.readouterr().out
        assert main(["deploy", "--workload", "lenet", "--method", "vawo*",
                     "--sigma", "0.5", "--trials", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "deployed:" in out
        assert "crossbars:" in out


class TestProfile:
    """``--profile`` writes obs artifacts; ``obs summarize`` renders them."""

    def test_deploy_profile_then_summarize(self, tmp_path, capsys):
        import repro.obs as obs

        obs_dir = tmp_path / "obs"
        assert main(["deploy", "--workload", "lenet", "--method", "vawo*",
                     "--sigma", "0.5", "--trials", "1", "--seed", "0",
                     "--profile", "--obs-dir", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "obs:" in out
        manifest = obs_dir / "deploy-manifest.json"
        spans = obs_dir / "deploy-spans.jsonl"
        assert manifest.exists() and spans.exists()

        from repro.utils.serialization import load_json, read_jsonl
        doc = load_json(manifest)
        assert doc["schema"] == "repro.obs.manifest/v1"
        assert doc["command"] == "deploy"
        assert doc["extra"]["method"] == "vawo*"
        stage_names = set(doc["stages"])
        assert "deploy.program" in stage_names
        assert "deploy.vawo" in stage_names
        assert "deploy.eval" in stage_names
        assert doc["metrics"]["counters"]["vawo.calls"] >= 1
        assert len(read_jsonl(spans)) == doc["n_spans"] > 0
        # The run left the process-wide state clean for whoever is next.
        assert obs.trace.TRACER.records() == []

        assert main(["obs", "summarize", str(manifest)]) == 0
        table = capsys.readouterr().out
        assert "run manifest — deploy" in table
        assert "deploy.vawo" in table and "stage" in table

    def test_summarize_missing_manifest_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope-manifest.json"
        assert main(["obs", "summarize", str(missing)]) == 2
        assert "repro obs:" in capsys.readouterr().out


class TestObsToolkit:
    """Profiled --jobs 2 deploy: one rooted trace, percentile metrics,
    and the critical-path/flame/diff subcommands over the artifact."""

    @pytest.fixture(scope="class")
    def obs_dir(self, tmp_path_factory):
        obs_dir = tmp_path_factory.mktemp("obs-par")
        code = main(["deploy", "--workload", "lenet", "--method", "vawo*",
                     "--sigma", "0.5", "--trials", "2", "--jobs", "2",
                     "--seed", "0", "--profile", "--obs-dir", str(obs_dir)])
        assert code == 0
        return obs_dir

    def test_spans_form_single_rooted_tree(self, obs_dir):
        import json

        spans = [json.loads(line)
                 for line in open(obs_dir / "deploy-spans.jsonl")]
        ids = {s["id"] for s in spans}
        roots = [s for s in spans if s.get("parent_id") not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "run.deploy"
        assert len(ids) == len(spans)
        # Worker subtrees joined the parent's trace.
        trace_ids = {s["trace_id"] for s in spans}
        assert len(trace_ids) == 1
        assert len({s["pid"] for s in spans}) >= 2

    def test_manifest_has_trial_wall_percentiles(self, obs_dir):
        from repro.utils.serialization import load_json

        doc = load_json(obs_dir / "deploy-manifest.json")
        wall = doc["metrics"]["histograms"]["trial.wall_s"]
        assert wall["count"] == 2
        for key in ("p50", "p95", "p99"):
            assert wall[key] is not None and wall[key] > 0

    def test_critical_path_subcommand(self, obs_dir, capsys):
        assert main(["obs", "critical-path", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "critical path — run.deploy" in out
        assert "hop(s)" in out and "self" in out

    def test_flame_subcommand_writes_folded_stacks(self, obs_dir,
                                                   tmp_path, capsys):
        folded = tmp_path / "deploy.folded"
        assert main(["obs", "flame", str(obs_dir),
                     "--out", str(folded)]) == 0
        assert "folded stacks" in capsys.readouterr().out
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("run.deploy")
            assert int(value) >= 0

    def test_flame_subcommand_stdout(self, obs_dir, capsys):
        assert main(["obs", "flame", str(obs_dir)]) == 0
        assert "run.deploy" in capsys.readouterr().out

    def test_diff_subcommand_self_comparison(self, obs_dir, capsys):
        assert main(["obs", "diff", str(obs_dir), str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "trial.wall_s" in out
        assert "p99" in out

    def test_summarize_shows_percentiles(self, obs_dir, capsys):
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "trial.wall_s (hist)" in out and "p95=" in out


class TestServe:
    """`repro serve` end to end: loopback requests, drain, obs artifacts."""

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--method", "magic"])

    def test_serve_loopback_roundtrip(self, tmp_path, capsys):
        import threading

        from repro.serve import (ServeClient, read_endpoint_file,
                                 wait_for_server)

        port_file = tmp_path / "serve.port"
        obs_dir = tmp_path / "obs"
        outcome = {}

        def drive():
            try:
                host, port = read_endpoint_file(port_file, timeout_s=600)
                wait_for_server(host, port, timeout_s=120)
                with ServeClient(host, port) as client:
                    reply = client.infer(indices=[0, 1, 2])
                    outcome["predictions"] = reply["predictions"]
                    outcome["labels"] = reply["labels"]
                    outcome["stats"] = client.stats()
                    client.shutdown()
            except Exception as exc:  # noqa: BLE001 — surfaced via outcome
                outcome["error"] = exc

        driver = threading.Thread(target=drive)
        driver.start()
        try:
            code = main(["serve", "--workload", "lenet", "--method",
                         "vawo*", "--sigma", "0.5", "--seed", "0",
                         "--port", "0", "--port-file", str(port_file),
                         "--max-batch", "4", "--profile",
                         "--obs-dir", str(obs_dir)])
        finally:
            driver.join(timeout=120)
        assert "error" not in outcome, outcome.get("error")
        assert code == 0
        assert len(outcome["predictions"]) == 3
        assert outcome["stats"]["requests"] >= 1

        out = capsys.readouterr().out
        assert "listening:" in out
        assert "drained:" in out
        host, _, port = port_file.read_text().strip().rpartition(":")
        assert host == "127.0.0.1" and int(port) > 0

        manifest = obs_dir / "serve-manifest.json"
        assert manifest.exists()
        from repro.utils.serialization import load_json
        doc = load_json(manifest)
        assert doc["command"] == "serve"
        assert doc["extra"]["requests"] >= 1
        assert doc["metrics"]["counters"]["serve.requests"] >= 1
        hist = doc["metrics"]["histograms"]["serve.batch_size"]
        assert hist["count"] >= 1

        # the serve obs dir resolves in the analysis toolkit
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        assert "run manifest — serve" in capsys.readouterr().out
        assert main(["obs", "critical-path", str(obs_dir)]) == 0
        assert "critical path — run.serve" in capsys.readouterr().out
