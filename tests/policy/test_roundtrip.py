"""Property: every registered policy round-trips through its PolicySpec.

For each name in ``POLICIES``: ``PolicySpec -> to_dict -> JSON ->
from_dict -> build`` must yield a working policy, and a 50-window
closed-loop run from the rebuilt spec must reproduce the original run's
trace digest sample for sample — serialization can neither drop nor
distort a single policy parameter without this failing.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workload_model import ActivityProfile
from repro.policy.base import POLICIES
from repro.policy.builtin import example_params
from repro.scenario.spec import PolicySpec, Scenario
from repro.util.units import MHZ


def _stress_profile_dict():
    utilization = {("core", i): 0.95 for i in range(4)}
    utilization[("shared_mem", None)] = 0.3
    return ActivityProfile(
        name="stress",
        cycles_per_iteration=1000.0,
        utilization=utilization,
        instructions_per_iteration=900.0,
    ).to_dict()


def _scenario(policy_spec, windows=50):
    return Scenario(
        name=f"roundtrip_{policy_spec.name}",
        workload={
            "name": "profiled",
            "params": {
                "profile": _stress_profile_dict(),
                "total_iterations": 10**9,
            },
        },
        floorplan="4xarm11",
        policy=policy_spec,
        config={
            "virtual_hz": 500 * MHZ,
            "spreader_resolution": [2, 2],
            "initial_temperature_kelvin": 340.0,  # policies act immediately
        },
        max_windows=windows,
    )


def _trace_signature(framework):
    trace = framework.trace
    return (
        trace.digest(),
        [round(t, 9) for t in trace.max_temps()],
        trace.frequencies(),
    )


@pytest.mark.parametrize("name", POLICIES.names())
def test_policy_spec_round_trip_reproduces_the_run(name):
    spec = PolicySpec(name, example_params(name))
    rebuilt = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec

    original, _ = _scenario(spec).run()
    replayed, _ = _scenario(rebuilt).run()
    assert _trace_signature(replayed) == _trace_signature(original)
    # The run exercised the policy (sensors updated, reactions ran).
    assert len(original.trace) == 50


@pytest.mark.parametrize("name", POLICIES.names())
def test_registry_build_accepts_example_params(name):
    policy = POLICIES.get(name)(**example_params(name))
    assert policy.report()["name"]


@settings(max_examples=10, deadline=None)
@given(
    high=st.floats(min_value=200.0, max_value=600.0),
    ratio=st.floats(min_value=0.1, max_value=0.9),
)
def test_dual_threshold_params_survive_json(high, ratio):
    spec = PolicySpec(
        "dual_threshold",
        {"high_hz": high * MHZ, "low_hz": high * ratio * MHZ},
    )
    rebuilt = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    policy = POLICIES.get(rebuilt.name)(**rebuilt.params)
    assert policy.high_hz == pytest.approx(high * MHZ)
    assert policy.low_hz == pytest.approx(high * ratio * MHZ)
