"""The ThermalPolicy protocol: lifecycle hooks, stats export, discovery."""

import pytest

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.policy.base import POLICIES, ThermalPolicy
from repro.policy.builtin import (
    EXAMPLE_PARAMS,
    describe_policies,
    example_params,
)
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ


def stress_profile():
    utilization = {("core", i): 0.95 for i in range(4)}
    return ActivityProfile(name="p", cycles_per_iteration=1000,
                           utilization=utilization)


def make_framework(policy, **config_overrides):
    return EmulationFramework(
        platform=None,
        floorplan=floorplan_4xarm11(),
        workload=ProfiledWorkload(stress_profile(), total_iterations=10**8),
        policy=policy,
        config=FrameworkConfig(
            virtual_hz=500 * MHZ, spreader_resolution=(2, 2), **config_overrides
        ),
    )


def test_base_protocol_defaults():
    policy = ThermalPolicy()
    assert policy.bind(framework=None) is policy
    assert policy.core_frequencies() is None
    assert policy.report() == {"name": "base"}
    with pytest.raises(NotImplementedError):
        policy.react(None, None, 0.0)


def test_every_builtin_is_registered():
    for name in ("none", "dual_threshold", "stop_go", "per_core",
                 "dvfs_ladder", "pid", "predictive", "per_domain"):
        assert name in POLICIES


def test_every_registered_policy_has_example_params():
    assert set(EXAMPLE_PARAMS) == set(POLICIES.names())


def test_example_params_returns_copies():
    first = example_params("per_core")
    first["core_components"]["ghost"] = 9
    assert "ghost" not in example_params("per_core")["core_components"]


def test_example_params_unknown_name():
    with pytest.raises(ValueError, match="no example params"):
        example_params("no_such_policy")


def test_example_params_build_working_policies():
    for name in POLICIES.names():
        policy = POLICIES.get(name)(**example_params(name))
        assert hasattr(policy, "react")


def test_describe_policies_rows():
    rows = describe_policies(POLICIES)
    assert [name for name, _, _ in rows] == POLICIES.names()
    by_name = {name: (params, summary) for name, params, summary in rows}
    assert "low_hz" in by_name["dual_threshold"][0]
    assert by_name["none"][1].startswith("The un-managed baseline")


def test_framework_calls_bind_at_launch():
    class Recording(ThermalPolicy):
        name = "recording"

        def __init__(self):
            self.bound_to = None

        def bind(self, framework):
            self.bound_to = framework
            return self

        def react(self, sensor_bank, vpcm, time_s):
            return vpcm.virtual_hz

    policy = Recording()
    framework = make_framework(policy)
    assert policy.bound_to is framework


def test_duck_typed_policy_without_hooks_still_works():
    class Legacy:
        def react(self, sensor_bank, vpcm, time_s):
            return vpcm.virtual_hz

        def core_frequencies(self):
            return None

    framework = make_framework(Legacy())
    framework.run(max_windows=3)
    report = framework.report()
    assert "policy" not in report.extras  # no report() hook, no stats


def test_policy_stats_reach_run_report_extras():
    framework = make_framework(POLICIES.get("dual_threshold")())
    report = framework.run(max_windows=30)
    stats = report.extras["policy"]
    assert stats["name"] == "dual-threshold-dfs"
    assert stats["switches"] >= 0
