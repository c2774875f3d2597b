"""Trial executor: serial and process paths, serial fallback, retries, faults."""

import functools
import os

import pytest

from repro.obs import metrics as obs_metrics
from repro.parallel import (TrialFaultError, TrialRun, resolve_jobs,
                            run_trials, trial_seeds)
from repro.utils.rng import spawn_rngs, spawn_seeds

# ----------------------------------------------------------------------
# module-level trial callables (they must pickle into worker processes)
# ----------------------------------------------------------------------


def draw(trial, rng):
    """The canonical trial: a value depending only on (seed, index)."""
    return float(rng.normal()) + trial * 100.0


def always_raise(trial, rng):
    raise RuntimeError(f"trial {trial} boom")


def raise_on_index_1(trial, rng):
    if trial == 1:
        raise ValueError("bad trial")
    return trial


_FLAKY_CALLS = {"n": 0}


def flaky_once(trial, rng):
    """Fails its first invocation, succeeds on retry (serial-only)."""
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient")
    return trial


def flaky_first_attempt(marker, trial, rng):
    """Trial 0's first attempt creates ``marker`` and raises; the rest
    draw like :func:`draw` (a marker file works across processes)."""
    if trial == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient")
    return draw(trial, rng)


def die_in_worker(parent_pid, trial, rng):
    """Kills any worker process it runs in; draws in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return draw(trial, rng)


def unpicklable_result(trial, rng):
    return lambda: trial  # a closure cannot pickle back to the parent


# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_auto_is_cpu_count_capped_by_trials(self):
        assert resolve_jobs(None, 1) == 1
        assert resolve_jobs(0, 1) == 1
        assert resolve_jobs(None, 10**6) == (os.cpu_count() or 1)

    def test_explicit_capped_by_trials(self):
        assert resolve_jobs(8, 2) == 2
        assert resolve_jobs(2, 8) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1, 4)

    def test_zero_trials(self):
        assert resolve_jobs(4, 0) == 1


class TestConstructorValidation:
    def test_negative_trials(self):
        with pytest.raises(ValueError):
            run_trials(draw, -1)

    def test_seed_count_mismatch(self):
        with pytest.raises(ValueError):
            run_trials(draw, 3, seeds=spawn_seeds(0, 2))


class TestBackendEquivalence:
    """jobs=N must be bit-identical to jobs=1 at the same seed."""

    def test_process_matches_serial(self):
        serial = run_trials(draw, 3, seed=42, jobs=1)
        par = run_trials(draw, 3, seed=42, jobs=2)
        assert serial.backend == "serial" and par.backend == "process"
        assert par.results() == serial.results()

    def test_matches_spawn_rngs_reference(self):
        """The executor draws from the exact streams spawn_rngs yields."""
        expected = [float(r.normal()) + i * 100.0
                    for i, r in enumerate(spawn_rngs(7, 4))]
        assert run_trials(draw, 4, seed=7, jobs=1).results() == expected

    def test_explicit_seeds_shard_a_larger_grid(self):
        """A slice of pre-spawned streams reproduces the full grid's."""
        full = run_trials(draw, 4, seed=3, jobs=1).results()
        seeds = trial_seeds(3, 4)
        half = run_trials(draw, 2, seeds=seeds[:2], jobs=1).results()
        assert half == full[:2]


class TestPickleFallback:
    def test_lambda_falls_back_to_serial(self, obs_on):
        run = run_trials(lambda t, rng: float(rng.normal()), 2, seed=0,
                         jobs=2)
        assert run.backend == "serial"
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.serial_fallbacks") == 1
        serial = run_trials(lambda t, rng: float(rng.normal()), 2, seed=0,
                            jobs=1)
        assert run.results() == serial.results()


class TestFaults:
    def test_retry_then_fault(self):
        run = run_trials(always_raise, 2, seed=0, jobs=1)
        assert len(run.faults) == 2
        for outcome in run.outcomes:
            assert outcome.attempts == 2        # original + one retry
            assert "boom" in outcome.error
        with pytest.raises(TrialFaultError) as err:
            run.results()
        assert len(err.value.faults) == 2
        assert run.results(strict=False) == []

    def test_partial_fault_keeps_good_trials(self):
        run = run_trials(raise_on_index_1, 3, seed=0, jobs=1)
        assert [f.index for f in run.faults] == [1]
        assert run.results(strict=False) == [0, 2]

    def test_process_backend_faults_dont_poison_pool(self):
        run = run_trials(raise_on_index_1, 3, seed=0, jobs=2)
        assert run.backend == "process"
        assert [f.index for f in run.faults] == [1]
        assert run.results(strict=False) == [0, 2]

    def test_transient_failure_recovers_on_retry(self):
        _FLAKY_CALLS["n"] = 0
        run = run_trials(flaky_once, 1, seed=0, jobs=1)
        assert run.results() == [0]
        assert run.outcomes[0].attempts == 2

    def test_transient_failure_recovers_on_retry_in_pool(self, tmp_path):
        fn = functools.partial(flaky_first_attempt, str(tmp_path / "marker"))
        run = run_trials(fn, 2, seed=0, jobs=2)
        assert run.backend == "process"
        assert [o.attempts for o in run.outcomes] == [2, 1]
        assert run.results() == run_trials(draw, 2, seed=0, jobs=1).results()

    def test_unpicklable_result_is_a_fault_not_a_crash(self):
        # Two trials so jobs=2 resolves to the process path, where the
        # result must pickle back to the parent.
        run = run_trials(unpicklable_result, 2, seed=0, jobs=2)
        assert run.backend == "process"
        assert run.results(strict=False) == []
        assert [o.attempts for o in run.faults] == [2, 2]

    def test_broken_pool_reruns_serially(self, obs_on):
        fn = functools.partial(die_in_worker, os.getpid())
        run = run_trials(fn, 3, seed=42, jobs=2)
        assert run.backend == "serial"
        assert run.results() == run_trials(draw, 3, seed=42, jobs=1).results()
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.serial_fallbacks") == 1


class TestMisc:
    def test_zero_trials(self):
        run = run_trials(draw, 0, seed=0, jobs=2)
        assert isinstance(run, TrialRun)
        assert run.outcomes == [] and run.results() == []

    def test_outcomes_in_trial_order(self):
        run = run_trials(draw, 4, seed=9, jobs=2)
        assert [o.index for o in run.outcomes] == [0, 1, 2, 3]
