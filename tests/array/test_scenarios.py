"""The composable non-ideality scenario engine (repro.array.scenarios)."""

import numpy as np
import pytest

from repro.array.scenarios import (DriftScenario, ProgramNoiseScenario,
                                   StuckAtScenario, TempCoefficientScenario,
                                   available_scenarios, parse_scenario_spec,
                                   scenario_key_components)
from repro.array.sim import SimArray
from repro.device.cell import SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.utils.rng import make_rng


def make_array(sigma=0.0, cell=SLC, rows=8, cols=6, scenarios=(),
               seed=None):
    device = DeviceModel(cell, VariationModel(sigma), n_bits=8)
    return SimArray(device, rows, cols, scenarios, seed)


def values_for(array, seed=0):
    return make_rng(seed).integers(0, 256, size=(array.rows, array.cols))


class TestSpecParsing:
    def test_none_and_empty(self):
        assert parse_scenario_spec(None) == ()
        assert parse_scenario_spec("") == ()
        assert parse_scenario_spec(()) == ()

    def test_string_form_round_trip(self):
        stack = parse_scenario_spec(
            "stuck_at:sa0_rate=0.05,sa1_rate=0.01;drift:t_seconds=1e4")
        assert [s.name for s in stack] == ["stuck_at", "drift"]
        assert stack[0].sa0_rate == 0.05 and stack[0].sa1_rate == 0.01
        assert stack[1].t_seconds == 1e4
        assert stack[1].nu_mean == 0.05         # omitted params keep defaults

    def test_string_form_no_params(self):
        (sc,) = parse_scenario_spec("program_noise")
        assert isinstance(sc, ProgramNoiseScenario) and sc.sigma == 0.1

    def test_scenario_instances_pass_through(self):
        sc = DriftScenario(t_seconds=5.0)
        assert parse_scenario_spec([sc]) == (sc,)

    def test_dict_form(self):
        (sc,) = parse_scenario_spec([{"name": "temperature",
                                      "temperature": 400.0}])
        assert isinstance(sc, TempCoefficientScenario)
        assert sc.temperature == 400.0

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_scenario_spec("radiation")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_scenario_spec("drift:half_life=3")

    def test_malformed_pair(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_scenario_spec("drift:t_seconds")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_scenario_spec("drift:t_seconds=long")

    def test_dict_without_name(self):
        with pytest.raises(ValueError, match="name"):
            parse_scenario_spec([{"t_seconds": 3.0}])

    def test_bad_entry_type(self):
        with pytest.raises(TypeError):
            parse_scenario_spec([42])

    def test_registry_lists_builtins(self):
        names = available_scenarios()
        assert {"stuck_at", "temperature", "drift",
                "program_noise"} <= set(names)


class TestScenarioPhysics:
    def test_temperature_identity_at_reference(self):
        sc = TempCoefficientScenario(temperature=300.0, t_ref=300.0)
        cells = make_rng(0).uniform(0.1, 1.0, size=(4, 4, 1))
        state = sc.init_state(cells.shape, SLC, make_rng(1))
        np.testing.assert_array_equal(sc.apply(cells, SLC, state,
                                               make_rng(2)), cells)

    def test_temperature_clips_at_zero(self):
        sc = TempCoefficientScenario(temperature=1000.0, t_ref=300.0,
                                     alpha_mean=-0.1, alpha_std=0.0)
        cells = np.full((2, 2, 1), 0.5)
        state = sc.init_state(cells.shape, SLC, make_rng(0))
        out = sc.apply(cells, SLC, state, make_rng(1))
        assert (out == 0.0).all()               # negative G clipped

    def test_drift_identity_at_t0(self):
        sc = DriftScenario(t_seconds=1.0, t0_seconds=1.0)
        cells = make_rng(0).uniform(0.1, 1.0, size=(3, 3, 1))
        state = sc.init_state(cells.shape, SLC, make_rng(1))
        np.testing.assert_array_equal(sc.apply(cells, SLC, state,
                                               make_rng(2)), cells)

    def test_drift_decays_conductance(self):
        sc = DriftScenario(t_seconds=1e6, nu_mean=0.1, nu_std=0.0)
        cells = np.full((4, 4, 1), 0.8)
        state = sc.init_state(cells.shape, SLC, make_rng(0))
        out = sc.apply(cells, SLC, state, make_rng(1))
        assert (out < cells).all()
        np.testing.assert_allclose(out, cells * 1e6 ** -0.1)

    def test_drift_invalid_times(self):
        with pytest.raises(ValueError):
            DriftScenario(t_seconds=0.0)
        with pytest.raises(ValueError):
            DriftScenario(t0_seconds=-1.0)

    def test_program_noise_zero_sigma_identity(self):
        sc = ProgramNoiseScenario(sigma=0.0)
        cells = make_rng(0).uniform(size=(3, 3, 1))
        out = sc.apply(cells, SLC, None, make_rng(1))
        np.testing.assert_array_equal(out, cells)
        assert out is not cells                 # never aliases the input

    def test_program_noise_negative_sigma(self):
        with pytest.raises(ValueError):
            ProgramNoiseScenario(sigma=-0.5)

    def test_stuck_at_pins_cells(self):
        sc = StuckAtScenario(sa0_rate=0.4, sa1_rate=0.3)
        cells = np.full((20, 20, 1), 0.5)
        state = sc.init_state(cells.shape, SLC, make_rng(0))
        out = sc.apply(cells, SLC, state, make_rng(1))
        g_off = SLC.conductance(np.zeros(1))[0]
        np.testing.assert_array_equal(out[state.stuck_at_0], g_off)
        np.testing.assert_array_equal(out[state.stuck_at_1], 1.0)
        healthy = ~(state.stuck_at_0 | state.stuck_at_1)
        np.testing.assert_array_equal(out[healthy], 0.5)


class TestScenarioStack:
    def test_stuck_at_changes_programmed_cells(self):
        values = values_for(make_array())
        bare = make_array(sigma=0.3).program(values, make_rng(7))
        array = make_array(sigma=0.3, scenarios=parse_scenario_spec(
            "stuck_at:sa0_rate=0.3,sa1_rate=0.1"), seed=0)
        cells = array.program(values, make_rng(7))
        assert not np.array_equal(cells, bare)
        np.testing.assert_array_equal(array.read_back(), cells)

    def test_persistent_state_across_cycles(self):
        array = make_array(sigma=0.0, scenarios=parse_scenario_spec(
            "stuck_at:sa0_rate=0.5"), seed=3)
        values = values_for(array)
        a = array.program(values, make_rng(1))
        b = array.program(values, make_rng(2))
        # sigma=0 and persistent faults: the two cycles read identically.
        np.testing.assert_array_equal(a, b)

    def test_state_deterministic_in_seed(self):
        stack = parse_scenario_spec("temperature:alpha_std=0.01")
        values = values_for(make_array())
        runs = [make_array(scenarios=stack, seed=9).program(values,
                                                            make_rng(4))
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])
        other = make_array(scenarios=stack, seed=10).program(values,
                                                             make_rng(4))
        assert not np.array_equal(runs[0], other)

    def test_stack_applies_in_order(self):
        values = values_for(make_array())
        drift = DriftScenario(t_seconds=100.0, nu_mean=0.1, nu_std=0.0)
        stuck = StuckAtScenario(sa0_rate=0.5, sa1_rate=0.0)
        a = make_array(scenarios=(stuck, drift),
                       seed=0).program(values, make_rng(1))
        b = make_array(scenarios=(drift, stuck),
                       seed=0).program(values, make_rng(1))
        # stuck-then-drift decays the pinned cells; drift-then-stuck
        # re-pins them afterwards — different physics, different cells.
        assert not np.array_equal(a, b)

    def test_obs_counter_increments(self):
        import repro.obs as obs
        from repro.obs import metrics as obs_metrics
        was = obs.enabled()
        obs.enable()
        obs_metrics.REGISTRY.reset()
        try:
            array = make_array(scenarios=parse_scenario_spec("stuck_at"),
                               seed=0)
            array.program(values_for(array), make_rng(1))
            snapshot = obs_metrics.REGISTRY.snapshot()
            assert snapshot["counters"]["scenario.stuck_at.applied"] == 1
            assert snapshot["counters"]["array.program_cycles"] == 1
        finally:
            obs_metrics.REGISTRY.reset()
            if not was:
                obs.disable()


class TestKeyComponents:
    def test_scenario_parameters_in_keys(self):
        a = StuckAtScenario(sa0_rate=0.05).key_components()
        b = StuckAtScenario(sa0_rate=0.06).key_components()
        assert a != b
        assert a["scenario"] == "stuck_at"

    def test_stack_key_components(self):
        stack = parse_scenario_spec("stuck_at;drift")
        comps = scenario_key_components(stack)
        assert len(comps) == 2
        assert comps[0]["scenario"] == "stuck_at"
        assert scenario_key_components(()) == ()

    def test_components_fingerprint_into_cache_keys(self):
        from repro.cache.keys import fingerprint
        k_empty = fingerprint(scenario_key_components(()))
        k_drift = fingerprint(
            scenario_key_components(parse_scenario_spec("drift")))
        k_later = fingerprint(scenario_key_components(
            parse_scenario_spec("drift:t_seconds=1e5")))
        assert len({k_empty, k_drift, k_later}) == 3
