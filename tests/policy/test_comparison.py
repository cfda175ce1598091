"""The policy-comparison pipeline: sweep + batched run + distillation."""

import json

import pytest

from repro.core.workload_model import ActivityProfile
from repro.policy.comparison import (
    compare_policies,
    comparison_scenarios,
    outcomes_from_results,
)
from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec, Scenario
from repro.scenario.sweep import Variant
from repro.util.units import MHZ


def _base(windows=60):
    utilization = {("core", i): 0.97 for i in range(4)}
    profile = ActivityProfile(
        name="stress",
        cycles_per_iteration=1000.0,
        utilization=utilization,
        instructions_per_iteration=850.0,
    )
    return Scenario(
        name="cmp",
        workload={
            "name": "profiled",
            "params": {"profile": profile.to_dict(), "total_iterations": 10**9},
        },
        floorplan="4xarm11",
        config={
            "virtual_hz": 500 * MHZ,
            "spreader_resolution": [2, 2],
            "initial_temperature_kelvin": 345.0,  # policies act immediately
        },
        max_windows=windows,
    )


def test_comparison_scenarios_named_by_label():
    _, scenarios = comparison_scenarios(
        _base(), ["none", PolicySpec("dual_threshold"),
                  Variant("tuned", {"name": "stop_go", "params": {}})]
    )
    assert [s.name for s in scenarios] == ["none", "dual_threshold", "tuned"]
    assert scenarios[2].policy.name == "stop_go"


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="unique"):
        comparison_scenarios(_base(), ["none", "none"])


def test_compare_policies_outcomes_and_throughput_loss():
    comparison = compare_policies(
        _base(), ["none", "dual_threshold", "stop_go"]
    )
    assert not comparison.errors
    assert [o.policy for o in comparison.outcomes] == [
        "none", "dual_threshold", "stop_go",
    ]
    unmanaged = comparison.outcome("none")
    managed = comparison.outcome("dual_threshold")
    # The unmanaged baseline anchors throughput loss at zero.
    assert unmanaged.throughput_loss == 0.0
    assert managed.peak_temperature_k < unmanaged.peak_temperature_k
    assert managed.throughput_loss > 0.0
    assert managed.time_above_threshold_s <= unmanaged.time_above_threshold_s
    # Policy stats flowed through RunReport.extras into the outcomes.
    assert managed.stats["switches"] >= 1
    assert comparison.outcome("stop_go").stats["name"] == "stop-go"


def test_compare_policies_serializes():
    comparison = compare_policies(_base(windows=20), ["none", "dual_threshold"])
    payload = json.loads(json.dumps(comparison.to_dict()))
    assert payload["threshold_kelvin"] == 350.0
    assert len(payload["outcomes"]) == 2
    assert payload["outcomes"][0]["policy"] == "none"
    assert payload["outcomes"][0]["throughput"] > 0


def test_broken_policy_lands_in_errors_not_raise():
    comparison = compare_policies(
        _base(windows=10),
        ["none", Variant("typo", {"name": "per_core",
                                  "params": {"core_components": {"ghost": 0}}})],
    )
    assert "typo" in comparison.errors
    assert "ghost" in comparison.errors["typo"]
    assert [o.policy for o in comparison.outcomes] == ["none"]


def test_unknown_outcome_raises_keyerror():
    comparison = compare_policies(_base(windows=5), ["none"])
    with pytest.raises(KeyError):
        comparison.outcome("missing")


def test_unbatched_path_matches_batched():
    base, scenarios = comparison_scenarios(
        _base(windows=30), ["none", "dual_threshold"]
    )
    threshold = base.config.sensor_upper_kelvin
    runner = Runner(capture_trace=True)
    serial = outcomes_from_results(runner.run(scenarios), threshold)
    batched = outcomes_from_results(runner.run_batched(scenarios), threshold)
    for a, b in zip(serial.outcomes, batched.outcomes):
        assert a.policy == b.policy
        assert a.peak_temperature_k == pytest.approx(
            b.peak_temperature_k, abs=0.5
        )


def test_scenario_result_policy_stats_property():
    _, scenarios = comparison_scenarios(_base(windows=10), ["dual_threshold"])
    [result] = Runner().run(scenarios)
    assert result.policy_stats["name"] == "dual-threshold-dfs"


def test_outcomes_from_results_without_traces_scores_zero_above():
    _, scenarios = comparison_scenarios(_base(windows=10), ["none"])
    results = Runner(capture_trace=False).run(scenarios)
    comparison = outcomes_from_results(results, threshold_kelvin=350.0)
    assert comparison.outcomes[0].time_above_threshold_s == 0.0
