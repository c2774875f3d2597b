"""Child→parent observability merging: metrics math and span adoption."""

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, span
from repro.parallel import TrialPayload, merge_trial_payload, run_trials


def _snapshot(build):
    reg = MetricsRegistry()
    build(reg)
    return reg.snapshot()


class TestHistogramMerge:
    def test_exact_aggregate_merge(self):
        child = Histogram()
        for v in (5.0, 1.0):
            child.observe(v)
        parent = Histogram()
        parent.observe(3.0)
        parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == 9.0
        assert snap["min"] == 1.0 and snap["max"] == 5.0
        assert snap["last"] == 1.0              # child's last write wins
        assert snap["series"] == [3.0, 5.0, 1.0]

    def test_series_cap_respected(self, monkeypatch):
        monkeypatch.setattr(obs_metrics, "SERIES_CAP", 3)
        child = Histogram()
        for v in (1.0, 2.0, 3.0):
            child.observe(v)
        parent = Histogram()
        parent.observe(0.0)
        parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert snap["count"] == 4               # aggregates stay exact
        assert len(snap["series"]) == 3 and snap["truncated"]


class TestRegistryMerge:
    def test_counters_add(self):
        parent = MetricsRegistry()
        parent.inc("a", 2)
        parent.merge(_snapshot(lambda r: (r.inc("a", 3), r.inc("b"))))
        assert parent.counter_value("a") == 5
        assert parent.counter_value("b") == 1

    def test_gauges_last_write_wins(self):
        parent = MetricsRegistry()
        parent.gauge("g", 1.0)
        parent.merge(_snapshot(lambda r: r.gauge("g", 9.0)))
        assert parent.snapshot()["gauges"]["g"] == 9.0

    def test_histograms_merge_per_name(self):
        parent = MetricsRegistry()
        parent.observe("h", 1.0)
        parent.merge(_snapshot(lambda r: r.observe("h", 3.0)))
        hist = parent.snapshot()["histograms"]["h"]
        assert hist["count"] == 2 and hist["total"] == 4.0


class TestSpanAdoption:
    def _child_records(self):
        """Two nested spans as a child tracer would record them."""
        child = Tracer()
        token_outer = child.push("trial.work", {})
        token_inner = child.push("trial.inner", {})
        child.pop(token_inner)
        child.pop(token_outer)
        return child.records()

    def test_ids_reissued_and_links_remapped(self):
        parent = Tracer()
        anchor = parent.push("parallel.trials", {})
        parent.pop(anchor)
        anchor_id = parent.records()[0]["id"]
        parent.adopt(self._child_records(), parent_id=anchor_id)
        outer, inner = [r for r in parent.records()
                        if r["name"].startswith("trial.")]
        assert outer["parent_id"] == anchor_id
        assert inner["parent_id"] == outer["id"]
        assert outer["depth"] == 1 and inner["depth"] == 2
        ids = [r["id"] for r in parent.records()]
        assert len(set(ids)) == len(ids)

    def test_unknown_parent_id_detaches(self):
        parent = Tracer()
        parent.adopt(self._child_records(), parent_id=12345)
        outer = parent.records()[0]
        assert outer["parent_id"] is None and outer["depth"] == 0

    def test_offset_and_extra_attrs(self):
        parent = Tracer()
        records = self._child_records()
        base = records[0]["start_s"]
        parent.adopt(records, start_offset_s=10.0,
                     extra_attrs={"trial": 3, "subprocess": True})
        adopted = parent.records()[0]
        assert adopted["start_s"] >= base + 10.0
        assert adopted["attrs"]["trial"] == 3
        assert adopted["attrs"]["subprocess"] is True


class TestMergeTrialPayload:
    def test_merges_into_global_registries(self, obs_on):
        child_reg = MetricsRegistry()
        child_reg.inc("trial.count")
        child_tracer = Tracer()
        child_tracer.pop(child_tracer.push("trial.work", {}))
        payload = TrialPayload(index=2, ok=True, result=1.0,
                               metrics=child_reg.snapshot(),
                               spans=child_tracer.records())
        with span("parallel.trials"):
            parent_id = obs_trace.TRACER.current_span_id()
            adopted = merge_trial_payload(payload, parent_span_id=parent_id)
        assert adopted == 1
        assert obs_metrics.REGISTRY.counter_value("trial.count") == 1
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.payloads_merged") == 1
        work = [r for r in obs_trace.TRACER.records()
                if r["name"] == "trial.work"]
        assert len(work) == 1
        assert work[0]["attrs"] == {"trial": 2, "subprocess": True}
        assert work[0]["parent_id"] == parent_id

    def test_empty_payload_is_harmless(self, obs_on):
        merge_trial_payload(TrialPayload(index=0, ok=True))
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.payloads_merged") == 1


def _instrumented(trial, rng):
    """Module-level so it ships to worker processes."""
    from repro.obs import metrics
    from repro.obs.trace import span as obs_span

    metrics.inc("trial.count")
    with obs_span("trial.work", trial=trial):
        return float(rng.normal())


def _boom_on_1(trial, rng):
    if trial == 1:
        raise ValueError("bad trial")
    return trial


class TestTrialTelemetry:
    """Per-trial wall time + retry/fault observations (histograms)."""

    def test_wall_time_percentiles_parallel(self, obs_on):
        run_trials(_instrumented, 3, seed=0, jobs=2)
        hist = obs_metrics.REGISTRY.snapshot()["histograms"]["trial.wall_s"]
        assert hist["count"] == 3
        assert hist["min"] >= 0.0
        for key in ("p50", "p95", "p99"):
            assert hist[key] is not None

    def test_wall_time_recorded_serially_too(self, obs_on):
        run_trials(_instrumented, 2, seed=0, jobs=1)
        hist = obs_metrics.REGISTRY.snapshot()["histograms"]["trial.wall_s"]
        assert hist["count"] == 2

    def test_retry_and_fault_keyed_by_trial_index(self, obs_on):
        run = run_trials(_boom_on_1, 3, seed=0, jobs=1)
        assert [f.index for f in run.faults] == [1]
        hists = obs_metrics.REGISTRY.snapshot()["histograms"]
        # One retry and one fault, both recording the failing index —
        # what `repro obs diff` localizes degrading trials with.
        assert hists["parallel.retry"]["series"] == [1.0]
        assert hists["parallel.fault"]["series"] == [1.0]
        # The executor observes exactly these two parallel histograms.
        assert {name for name in hists if name.startswith("parallel.")} == {
            "parallel.retry", "parallel.fault"}

    def test_single_rooted_tree_under_parallel_run(self, obs_on):
        import os

        with span("run.test"):
            run = run_trials(_instrumented, 3, seed=0, jobs=2)
        assert run.backend == "process"
        records = obs_trace.TRACER.records()
        ids = {r["id"] for r in records}
        roots = [r for r in records if r["parent_id"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "run.test"
        work = [r for r in records if r["name"] == "trial.work"]
        assert len(work) == 3
        assert all(r["trace_id"] == obs_trace.TRACER.trace_id
                   for r in work)
        assert all(r["pid"] != os.getpid() for r in work)


class TestEndToEndProcessMerge:
    def test_profiled_parallel_grid_reports_all_trials(self, obs_on):
        run = run_trials(_instrumented, 3, seed=0, jobs=2)
        assert run.backend == "process"
        assert obs_metrics.REGISTRY.counter_value("trial.count") == 3
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.payloads_merged") == 3
        work = [r for r in obs_trace.TRACER.records()
                if r["name"] == "trial.work"]
        assert sorted(r["attrs"]["trial"] for r in work) == [0, 1, 2]
        grid = [r for r in obs_trace.TRACER.records()
                if r["name"] == "parallel.trials"]
        assert len(grid) == 1
        assert all(r["parent_id"] == grid[0]["id"] for r in work)

    def test_serial_grid_records_directly(self, obs_on):
        run_trials(_instrumented, 2, seed=0, jobs=1)
        assert obs_metrics.REGISTRY.counter_value("trial.count") == 2
        # No payload round-trip on the serial backend.
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.payloads_merged") == 0
