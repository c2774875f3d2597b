"""Golden tests for the graph-backed rules R8-R12 (tools/lint).

R9/R10 are cross-file dataflow rules, so their fixtures are copied
from ``tests/tools/fixtures/`` into a temp mini-tree shaped like the
real one (``src/repro/parallel/...``) and linted through
``check_paths``; R11/R12 are file-local and drive ``check_source``
on the fixture text. The R8 suite builds a tiny cached-stage tree,
seeds a baseline, then mutates the stage body and asserts the gate
trips — the acceptance criterion of the drift rule.
"""

import json
import textwrap
from pathlib import Path

from tools.lint.callgraph import ModuleGraph, clear_parse_cache, get_context
from tools.lint.hashing import normalized_dump
from tools.lint.runner import check_paths, check_source, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def codes(violations):
    return [v.code for v in violations]


def place(tmp_path, fixture, rel):
    dest = tmp_path / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text((FIXTURES / fixture).read_text(encoding="utf-8"),
                    encoding="utf-8")
    return dest


def lint_tree(tmp_path, select):
    clear_parse_cache()
    return check_paths([str(tmp_path)], select=select, stage_baseline=None)


class TestR9RngDiscipline:
    def test_violating_worker_module(self, tmp_path):
        place(tmp_path, "r9_violation.py", "src/repro/parallel/worker.py")
        out = lint_tree(tmp_path, select=["R9"])
        # Module-level generator + default_rng + fresh make_rng + the
        # read of the shared module-level stream.
        assert codes(out) == ["R9", "R9", "R9", "R9"]
        messages = " ".join(v.message for v in out)
        assert "per-trial stream" in messages
        assert "OS entropy" in messages

    def test_clean_worker_module(self, tmp_path):
        place(tmp_path, "r9_clean.py", "src/repro/parallel/worker.py")
        assert lint_tree(tmp_path, select=["R9"]) == []

    def test_trial_fn_reached_through_run_trials(self, tmp_path):
        """The dataflow leg: a generator built in a trial fn that only
        reaches the worker through a partial() handed to run_trials."""
        executor = tmp_path / "src/repro/parallel/executor.py"
        executor.parent.mkdir(parents=True, exist_ok=True)
        executor.write_text(textwrap.dedent("""\
            def run_trials(fn, n_trials, seed=None, jobs=None):
                return [fn(t, None) for t in range(n_trials)]
            """), encoding="utf-8")
        acc = tmp_path / "src/repro/eval/acc.py"
        acc.parent.mkdir(parents=True, exist_ok=True)
        acc.write_text(textwrap.dedent("""\
            from functools import partial

            import numpy as np

            from repro.parallel.executor import run_trials


            def _trial(model, trial, rng):
                local = np.random.default_rng(trial)
                return local.normal()


            def evaluate(model, n):
                return run_trials(partial(_trial, model), n)
            """), encoding="utf-8")
        out = lint_tree(tmp_path, select=["R9"])
        assert codes(out) == ["R9"]
        assert out[0].path.endswith("acc.py")
        assert "_trial" in out[0].message

    @staticmethod
    def _write_parallel_package(tmp_path):
        """A repro.parallel with run_trials plus an unrelated ``map``."""
        pkg = tmp_path / "src/repro/parallel"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "executor.py").write_text(textwrap.dedent("""\
            def run_trials(fn, n_trials, seed=None, jobs=None):
                return [fn(t, None) for t in range(n_trials)]


            class Batches:
                def map(self, fn, items):
                    return [fn(item) for item in items]
            """), encoding="utf-8")

    def test_attribute_form_run_trials_trips(self, tmp_path):
        """``parallel.run_trials(partial(...))`` seeds the trial fn."""
        self._write_parallel_package(tmp_path)
        acc = tmp_path / "src/repro/eval/acc.py"
        acc.parent.mkdir(parents=True, exist_ok=True)
        acc.write_text(textwrap.dedent("""\
            from functools import partial

            import numpy as np

            from repro.parallel import executor


            def _trial(model, trial, rng):
                local = np.random.default_rng(trial)
                return local.normal()


            def evaluate(model, n):
                return executor.run_trials(partial(_trial, model), n)
            """), encoding="utf-8")
        out = lint_tree(tmp_path, select=["R9"])
        assert codes(out) == ["R9"]
        assert out[0].path.endswith("acc.py")
        assert "_trial" in out[0].message

    def test_unrelated_pool_map_does_not_seed_workers(self, tmp_path):
        """A ``pool.map(fn)`` is not a trial submission, even when some
        repro.parallel function is also called ``map``."""
        self._write_parallel_package(tmp_path)
        other = tmp_path / "src/repro/eval/sweep.py"
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_text(textwrap.dedent("""\
            import numpy as np


            def _cell(seed):
                local = np.random.default_rng(seed)
                return local.normal()


            def sweep(pool, seeds):
                return pool.map(_cell, seeds)
            """), encoding="utf-8")
        assert lint_tree(tmp_path, select=["R9"]) == []

    def test_rng_ok_marker_with_reason_suppresses(self, tmp_path):
        worker = tmp_path / "src/repro/parallel/worker.py"
        worker.parent.mkdir(parents=True, exist_ok=True)
        worker.write_text(textwrap.dedent("""\
            import numpy as np


            def run_trial_task(trial):
                probe = np.random.default_rng(0)  # rng-ok — fixed probe, not trial-visible
                return probe.normal()
            """), encoding="utf-8")
        assert lint_tree(tmp_path, select=["R9"]) == []

    def test_bare_marker_without_reason_does_not_suppress(self, tmp_path):
        worker = tmp_path / "src/repro/parallel/worker.py"
        worker.parent.mkdir(parents=True, exist_ok=True)
        worker.write_text(textwrap.dedent("""\
            import numpy as np


            def run_trial_task(trial):
                probe = np.random.default_rng(0)  # rng-ok
                return probe.normal()
            """), encoding="utf-8")
        assert codes(lint_tree(tmp_path, select=["R9"])) == ["R9"]


class TestR10ForkSafety:
    def test_violating_module(self, tmp_path):
        place(tmp_path, "r10_violation.py", "src/repro/parallel/state.py")
        out = lint_tree(tmp_path, select=["R10"])
        assert codes(out) == ["R10", "R10", "R10"]
        messages = " ".join(v.message for v in out)
        assert "rebinds" in messages
        assert "mutates" in messages
        assert "close" in messages and "unlink" in messages

    def test_clean_module(self, tmp_path):
        place(tmp_path, "r10_clean.py", "src/repro/parallel/state.py")
        assert lint_tree(tmp_path, select=["R10"]) == []

    def test_writes_outside_worker_scope_not_flagged(self, tmp_path):
        # The same global mutation in a non-worker-reachable module is
        # legal: only fork-divergent state is the rule's business.
        place(tmp_path, "r10_violation.py", "src/repro/data/registry.py")
        out = lint_tree(tmp_path, select=["R10"])
        # SharedMemory pairing still applies (it is per-module), but
        # the global-write findings require worker reachability.
        assert all("SharedMemory" in v.message for v in out)


class TestR11SpanHygiene:
    def test_violating_fixture(self):
        source = (FIXTURES / "r11_violation.py").read_text(encoding="utf-8")
        out = check_source(source, "src/repro/core/driver.py",
                           select=["R11"])
        assert codes(out) == ["R11", "R11"]
        assert "with" in out[0].message
        assert "TRACER.push" in out[1].message

    def test_clean_fixture(self):
        source = (FIXTURES / "r11_clean.py").read_text(encoding="utf-8")
        out = check_source(source, "src/repro/core/driver.py",
                           select=["R11"])
        assert out == []

    def test_out_of_scope_paths_exempt(self):
        source = (FIXTURES / "r11_violation.py").read_text(encoding="utf-8")
        for path in ("src/repro/obs/trace.py", "tests/obs/test_trace.py",
                     "benchmarks/bench_x.py"):
            assert check_source(source, path, select=["R11"]) == []

    def test_traversal_helpers_violating(self):
        """Critical-path-style traversal shapes: a held span in a
        recursive walk and a hand-driven TRACER stack both flag."""
        source = (FIXTURES / "r11_traversal_violation.py").read_text(
            encoding="utf-8")
        out = check_source(source, "src/repro/obs/analysis.py",
                           select=["R11"])
        assert codes(out) == ["R11", "R11", "R11"]
        assert "with" in out[0].message
        assert "TRACER.push" in out[1].message

    def test_traversal_helpers_clean(self):
        """with-form, decorator-form, and a justified # span-ok hold
        across generator yields all pass at the analysis module path."""
        source = (FIXTURES / "r11_traversal_clean.py").read_text(
            encoding="utf-8")
        assert check_source(source, "src/repro/obs/analysis.py",
                            select=["R11"]) == []


class TestR12ExceptionHygiene:
    def test_violating_fixture(self):
        source = (FIXTURES / "r12_violation.py").read_text(encoding="utf-8")
        out = check_source(source, "src/repro/utils/io.py", select=["R12"])
        assert codes(out) == ["R12", "R12"]
        assert "noqa: BLE001" in out[0].message
        assert "bare" in out[1].message

    def test_clean_fixture(self):
        source = (FIXTURES / "r12_clean.py").read_text(encoding="utf-8")
        out = check_source(source, "src/repro/utils/io.py", select=["R12"])
        assert out == []

    def test_tuple_handler_with_broad_member_flagged(self):
        out = check_source(textwrap.dedent("""\
            def f(fn):
                try:
                    return fn()
                except (ValueError, Exception):
                    return None
            """), "src/repro/utils/io.py", select=["R12"])
        assert codes(out) == ["R12"]

    def test_narrow_tuple_not_flagged(self):
        out = check_source(textwrap.dedent("""\
            def f(fn):
                try:
                    return fn()
                except (ValueError, KeyError):
                    return None
            """), "src/repro/utils/io.py", select=["R12"])
        assert out == []


# ----------------------------------------------------------------------
# R8: the cache-salt drift gate
# ----------------------------------------------------------------------
KEYS_SRC = """\
STAGE_VERSIONS = {{"lut": {salt}}}


def stage_key(stage, **components):
    return "repro.cache/" + stage + "/v" + str(STAGE_VERSIONS.get(stage, 0))
"""

PIPELINE_SRC = """\
from repro.cache.keys import stage_key


def _helper(x):
    {helper_body}


def build_lut(x):
    key = stage_key("lut", x=x)
    return key, _helper(x)
"""


class TestR8CacheSaltDrift:
    def _write_tree(self, tmp_path, salt=1, helper_body="return x + 1"):
        clear_parse_cache()
        keys = tmp_path / "src/repro/cache/keys.py"
        keys.parent.mkdir(parents=True, exist_ok=True)
        keys.write_text(KEYS_SRC.format(salt=salt), encoding="utf-8")
        pipe = tmp_path / "src/repro/core/pipeline.py"
        pipe.parent.mkdir(parents=True, exist_ok=True)
        pipe.write_text(PIPELINE_SRC.format(helper_body=helper_body),
                        encoding="utf-8")
        return tmp_path / "src"

    def test_stage_body_edit_without_bump_trips_gate(self, tmp_path,
                                                     capsys):
        src = self._write_tree(tmp_path)
        baseline = tmp_path / "stage_hashes.json"
        assert main(["--update-baseline", str(src),
                     "--stage-baseline", str(baseline)]) == 0
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert set(document["stages"]) == {"lut"}
        assert document["stages"]["lut"]["salt"] == 1

        run = [str(src), "--stage-baseline", str(baseline),
               "--select", "R8", "-q"]
        assert main(run) == 0
        capsys.readouterr()

        # A transitive-callee edit (the memoizing function untouched)
        # without a STAGE_VERSIONS bump must fail the gate.
        self._write_tree(tmp_path, helper_body="return x + 2")
        assert main(run) == 1
        out = capsys.readouterr().out
        assert "R8" in out and "STAGE_VERSIONS" in out

        # Bumping the salt flips the message to "refresh the baseline".
        self._write_tree(tmp_path, salt=2, helper_body="return x + 2")
        assert main(run) == 1
        assert "--update-baseline" in capsys.readouterr().out

        # Refreshing the baseline closes the loop.
        assert main(["--update-baseline", str(src),
                     "--stage-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(run) == 0

    def test_docstring_and_formatting_edits_do_not_trip(self, tmp_path,
                                                        capsys):
        src = self._write_tree(tmp_path)
        baseline = tmp_path / "stage_hashes.json"
        assert main(["--update-baseline", str(src),
                     "--stage-baseline", str(baseline)]) == 0
        self._write_tree(
            tmp_path,
            helper_body='"""Docstring only."""\n    return x  +  1')
        run = [str(src), "--stage-baseline", str(baseline),
               "--select", "R8", "-q"]
        assert main(run) == 0
        capsys.readouterr()

    def test_missing_baseline_reports_seed_instruction(self, tmp_path,
                                                       capsys):
        src = self._write_tree(tmp_path)
        run = [str(src), "--stage-baseline",
               str(tmp_path / "absent.json"), "--select", "R8", "-q"]
        assert main(run) == 1
        assert "--update-baseline" in capsys.readouterr().out

    def test_repo_baseline_matches_working_tree(self):
        # The committed fingerprints must describe the committed code:
        # otherwise every PR starts red (or worse, the gate is dead).
        root = Path(__file__).resolve().parents[2]
        out = check_paths([str(root / "src")], select=["R8"],
                          stage_baseline=root / "tools/stage_hashes.json")
        assert out == []


class TestGraphInternals:
    def test_normalized_dump_ignores_positions_and_docstrings(self):
        import ast
        a = ast.parse('def f(x):\n    """Doc."""\n    return x + 1\n')
        b = ast.parse("def f(x):\n    return (x +\n        1)\n")
        assert normalized_dump(a) == normalized_dump(b)
        c = ast.parse("def f(x):\n    return x + 2\n")
        assert normalized_dump(a) != normalized_dump(c)

    def test_strict_closure_follows_imports_and_methods(self):
        clear_parse_cache()
        util = get_context("src/repro/util.py", textwrap.dedent("""\
            def leaf(x):
                return x
            """))
        core = get_context("src/repro/core/eng.py", textwrap.dedent("""\
            from repro.util import leaf


            class Engine:
                def run(self, x):
                    return self._step(leaf(x))

                def _step(self, x):
                    return x
            """))
        graph = ModuleGraph([util, core])
        closure = graph.closure(["repro.core.eng.Engine.run"],
                                strict_only=True)
        assert closure == {"repro.core.eng.Engine.run",
                           "repro.core.eng.Engine._step",
                           "repro.util.leaf"}

    def test_parse_cache_reuses_contexts_by_content(self):
        clear_parse_cache()
        first = get_context("a.py", "x = 1\n")
        again = get_context("a.py", "x = 1\n")
        changed = get_context("a.py", "x = 2\n")
        assert first is again
        assert changed is not first
