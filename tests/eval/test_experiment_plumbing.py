"""Experiment-runner plumbing, with the expensive parts stubbed out.

These verify grid construction, row labelling and config wiring of the
Fig. 5 runners without paying for real deployments (the real runs live
in benchmarks/).
"""

import numpy as np
import pytest

import repro.eval.experiments as ex
from repro.eval.accuracy import TrialResult


@pytest.fixture
def stubbed(monkeypatch, trained_tiny_mlp, blob_data):
    """Stub workload building and deployment scoring."""

    def fake_build(name, preset="quick", seed=0, **kwargs):
        return ex.Workload(name=name, model=trained_tiny_mlp,
                           train=blob_data, test=blob_data,
                           float_accuracy=0.99)

    captured = []

    class FakeDeployer:
        def __init__(self, model, train, config, rng=None):
            captured.append(config)

    def fake_eval(deployer, test, n_trials=2, rng=None, batch_size=256,
                  jobs=1):
        return TrialResult(accuracies=[0.5] * n_trials)

    def fake_ideal(deployer, test, batch_size=256):
        return 0.95

    monkeypatch.setattr(ex, "build_workload", fake_build)
    monkeypatch.setattr(ex, "Deployer", FakeDeployer)
    monkeypatch.setattr(ex, "evaluate_deployment", fake_eval)
    monkeypatch.setattr(ex, "ideal_accuracy", fake_ideal)
    return captured


class TestFig5Runner:
    def test_grid_dimensions(self, stubbed):
        rows = ex.run_fig5_accuracy("lenet", methods=("plain", "vawo*"),
                                    granularities=(16, 128), n_trials=3)
        assert len(rows) == 4
        assert {r.method for r in rows} == {"plain", "vawo*"}
        assert {r.granularity for r in rows} == {16, 128}
        assert all(r.ideal_accuracy == 0.95 for r in rows)
        assert all(r.mean_accuracy == 0.5 for r in rows)

    def test_configs_match_methods(self, stubbed):
        ex.run_fig5_accuracy("lenet", methods=("plain", "vawo*+pwt"),
                             granularities=(16,), sigma=0.7)
        assert len(stubbed) == 2
        assert stubbed[0].method_name == "plain"
        assert stubbed[1].method_name == "vawo*+pwt"
        assert all(c.sigma == 0.7 for c in stubbed)
        assert all(c.bn_recalibrate for c in stubbed)

    def test_accuracy_drop_property(self, stubbed):
        rows = ex.run_fig5_accuracy("lenet", methods=("plain",),
                                    granularities=(16,))
        assert rows[0].accuracy_drop == pytest.approx(0.45)


class TestFig5cRunner:
    def test_sigma_sweep_rows(self, stubbed):
        rows = ex.run_fig5c(sigmas=(0.2, 0.8), granularities=(16, 64),
                            n_trials=1)
        assert len(rows) == 4
        assert {r.sigma for r in rows} == {0.2, 0.8}
        assert all(r.method == "vawo*+pwt" for r in rows)
        assert all(r.cell_bits == 2 for r in rows)
