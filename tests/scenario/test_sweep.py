"""Sweep expansion and experiment suites."""

import json

import pytest

from repro.core.framework import FrameworkConfig
from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.scenario.sweep import ExperimentSuite, Variant, sweep
from repro.util.units import MHZ


def base_scenario():
    return Scenario(
        name="base",
        workload=WorkloadSpec("profiled", {"profile": {
            "name": "p", "cycles_per_iteration": 1000.0,
            "utilization": [[["core", 0], 0.9]],
            "instructions_per_iteration": 0.0,
        }, "total_iterations": 1000}),
        floorplan="4xarm11",
        config=FrameworkConfig(virtual_hz=500 * MHZ, spreader_resolution=(2, 2)),
    )


def test_grid_expansion_counts():
    scenarios = sweep(base_scenario(), {
        "config.sensor_upper_kelvin": [360.0, 355.0, 350.0],
        "policy.params.low_hz": [100 * MHZ, 250 * MHZ],
    })
    assert len(scenarios) == 6
    assert len({s.name for s in scenarios}) == 6
    uppers = {s.config.sensor_upper_kelvin for s in scenarios}
    assert uppers == {360.0, 355.0, 350.0}
    lows = {s.policy.params["low_hz"] for s in scenarios}
    assert lows == {100 * MHZ, 250 * MHZ}


def test_empty_overrides_yield_one_copy():
    base = base_scenario()
    scenarios = sweep(base, {})
    assert len(scenarios) == 1
    assert scenarios[0] == base
    assert scenarios[0] is not base


def test_base_is_not_mutated():
    base = base_scenario()
    before = base.to_dict()
    sweep(base, {"config.sensor_upper_kelvin": [351.0, 352.0]})
    assert base.to_dict() == before


def test_variant_labels_name_scenarios():
    scenarios = sweep(base_scenario(), {
        "policy": [
            Variant("paper DFS", {"name": "dual_threshold"}),
            Variant("unmanaged", {"name": "none"}),
        ],
    })
    assert [s.name for s in scenarios] == ["base[paper DFS]", "base[unmanaged]"]
    assert scenarios[0].policy == PolicySpec("dual_threshold")
    assert scenarios[1].policy == PolicySpec("none")


def test_plain_values_self_label():
    [scenario] = sweep(base_scenario(), {"config.refine_critical": [2]})
    assert scenario.name == "base[refine_critical=2]"
    assert scenario.config.refine_critical == 2


def test_bad_sweep_values():
    with pytest.raises(ValueError, match="non-empty list"):
        sweep(base_scenario(), {"config.refine_critical": []})


def test_swept_scenarios_stay_json_expressible():
    scenarios = sweep(base_scenario(), {
        "config.sensor_upper_kelvin": [360.0, 345.0],
    })
    for scenario in scenarios:
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario


def test_solver_backend_is_sweepable_and_json_expressible():
    scenarios = sweep(base_scenario(), {
        "config.solver_backend": ["sparse_be", "cached_lu",
                                  {"name": "cached_lu",
                                   "params": {"refactor_tolerance_kelvin": 0.5}}],
    })
    assert [s.config.solver_backend for s in scenarios][:2] == [
        "sparse_be", "cached_lu",
    ]
    for scenario in scenarios:
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario


def test_suite_batched_run_matches_plain_run():
    suite = ExperimentSuite.from_sweep(
        "thresholds", base_scenario(),
        {"config.sensor_upper_kelvin": [360.0, 350.0]},
    )
    plain = Runner().run(suite.scenarios)
    batched = Runner().run_batched(suite.scenarios)
    assert [r.name for r in batched] == [r.name for r in plain]
    for p, b in zip(plain, batched):
        assert b.ok, b.error
        assert b.report.windows == p.report.windows


def test_suite_round_trip_and_from_sweep():
    suite = ExperimentSuite.from_sweep(
        "thresholds", base_scenario(),
        {"config.sensor_upper_kelvin": [360.0, 350.0]},
    )
    assert len(suite) == 2
    rebuilt = ExperimentSuite.from_dict(json.loads(json.dumps(suite.to_dict())))
    assert rebuilt == suite
