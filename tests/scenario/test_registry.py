"""Registry behavior: built-ins, lookup errors, custom registration and
the one ``name | {"name", "params"}`` spec grammar every registry reads."""

import pytest

from repro.core.framework import FrameworkConfig
from repro.core.workload_model import ActivityProfile
from repro.emulation.backends import EMULATION_BACKENDS
from repro.policy.base import POLICIES
from repro.policy.builtin import (
    DualThresholdDfsPolicy,
    NoManagementPolicy,
    PerCoreDfsPolicy,
    StopGoPolicy,
)
from repro.policy.exploration import PerDomainPolicy
from repro.power.models import TECH_NODES
from repro.scenario.registry import WORKLOADS
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.thermal.backends import SOLVER_BACKENDS
from repro.thermal.floorplan import FLOORPLANS
from repro.trace.capture import record
from repro.trace.replay import replay
from repro.util.registry import Registry, canonical_spec
from tests.trace.conftest import short_scenario


def test_builtin_floorplans():
    assert "4xarm7" in FLOORPLANS
    assert "4xarm11" in FLOORPLANS
    floorplan = FLOORPLANS.get("4xarm11")()
    assert floorplan.name == "4xarm11"


def test_builtin_policies():
    assert isinstance(POLICIES.get("none")(), NoManagementPolicy)
    assert isinstance(
        POLICIES.get("dual_threshold")(high_hz=5e8, low_hz=1e8),
        DualThresholdDfsPolicy,
    )
    assert isinstance(POLICIES.get("stop_go")(run_hz=5e8), StopGoPolicy)
    per_core = POLICIES.get("per_core")(
        core_components={"arm11_0": 0}, high_hz=5e8, low_hz=1e8
    )
    assert isinstance(per_core, PerCoreDfsPolicy)
    per_domain = POLICIES.get("per_domain")(
        core_components={"arm11_0": 0}
    )
    assert isinstance(per_domain, PerDomainPolicy)


def test_builtin_workloads():
    for name in ("matrix", "dithering", "shared_traffic", "compute_burst",
                 "profiled"):
        assert name in WORKLOADS


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="unknown floorplan 'nope'"):
        FLOORPLANS.get("nope")
    with pytest.raises(ValueError, match="4xarm11"):
        FLOORPLANS.get("nope")


def test_platform_workloads_require_platform():
    with pytest.raises(ValueError, match="needs a platform"):
        WORKLOADS.get("matrix")(None, None)


def test_register_and_unregister():
    registry = Registry("thing")
    registry.register("a", 1)
    assert registry.get("a") == 1
    assert registry.names() == ["a"]
    assert len(registry) == 1

    @registry.register("b")
    def factory():
        return 2

    assert registry.get("b") is factory
    with pytest.raises(ValueError, match="already registered"):
        registry.register("a", 3)
    registry.unregister("a")
    assert "a" not in registry
    with pytest.raises(ValueError, match="non-empty string"):
        registry.register("", 1)


# -- the one spec grammar ----------------------------------------------------

#: Every registry a scenario names, with one entry, valid params for it
#: and the leading arguments its factories take.
GRAMMAR_CASES = [
    (FLOORPLANS, "hetero", {"big": 1, "little": 1}, ()),
    (POLICIES, "dual_threshold", {"low_hz": 5e7}, ()),
    (
        WORKLOADS,
        "profiled",
        {
            "profile": ActivityProfile(
                name="p", cycles_per_iteration=1000.0,
                utilization={("core", 0): 0.5},
            ).to_dict(),
            "total_iterations": 10,
        },
        (None, None),
    ),
    (SOLVER_BACKENDS, "cached_lu", {"refactor_tolerance_kelvin": 2.0}, ()),
    (EMULATION_BACKENDS, "windowed", {"max_utilization": 0.9}, ()),
    (TECH_NODES, "65nm", {}, ()),
]


@pytest.mark.parametrize(
    "registry,name,params,args", GRAMMAR_CASES,
    ids=[case[0].kind for case in GRAMMAR_CASES],
)
def test_every_registry_reads_one_spec_grammar(registry, name, params, args):
    kind = registry.kind
    assert registry.parse(name) == (name, {})
    assert registry.parse({"name": name}) == (name, {})
    spec = {"name": name, "params": params}
    assert registry.parse(spec) == (name, params)
    assert registry.parse(spec)[1] is params  # parsing copies nothing
    assert registry.resolve(spec, *args) is not None
    with pytest.raises(ValueError, match=f"a {kind} dict needs a 'name' entry"):
        registry.parse({"params": params})
    with pytest.raises(
        ValueError, match=rf"unknown {kind} keys: parms \(known: name, params\)"
    ):
        registry.parse({"name": name, "parms": params})
    with pytest.raises(ValueError, match=f"{kind} params must be a dict"):
        registry.parse({"name": name, "params": [1]})
    with pytest.raises(TypeError, match=f"a {kind} spec must be a name"):
        registry.parse(42)


@pytest.mark.parametrize("typo", ["parms", "param"])
def test_misspelled_spec_keys_fail_loudly(typo):
    with pytest.raises(ValueError, match=f"unknown policy keys: {typo}"):
        PolicySpec.from_dict({"name": "dual_threshold", typo: {"low_hz": 5e7}})
    with pytest.raises(
        ValueError, match=f"unknown workload generator keys: {typo}"
    ):
        WorkloadSpec.from_dict({"name": "matrix", typo: {"n": 4}})
    with pytest.raises(ValueError, match=f"unknown floorplan keys: {typo}"):
        Scenario(name="s", workload="matrix",
                 floorplan={"name": "hetero", typo: {"big": 1}})
    for knob, name, kind in (
        ("solver_backend", "cached_lu", "solver backend"),
        ("emulation_backend", "windowed", "emulation backend"),
        ("tech_node", "65nm", "tech node"),
    ):
        with pytest.raises(ValueError, match=f"unknown {kind} keys: {typo}"):
            FrameworkConfig(**{knob: {"name": name, typo: {}}})


def test_specs_without_a_name_fail_loudly():
    with pytest.raises(ValueError, match="a policy dict needs a 'name'"):
        PolicySpec.from_dict({"params": {"low_hz": 5e7}})
    with pytest.raises(
        ValueError, match="a workload generator dict needs a 'name'"
    ):
        WorkloadSpec.from_dict({"params": {}})
    with pytest.raises(ValueError, match="a floorplan dict needs a 'name'"):
        Scenario(name="s", workload="matrix", floorplan={"params": {}})
    with pytest.raises(ValueError, match="a tech node dict needs a 'name'"):
        FrameworkConfig(tech_node={"params": {}})


def test_replay_floorplan_override_typo_fails_loudly():
    scenario = short_scenario(seconds=0.05)
    _, _, archive = record(scenario)
    with pytest.raises(ValueError, match="unknown floorplan keys: parms"):
        replay(archive, floorplan={"name": "4xarm11", "parms": {}})
    player, _ = replay(archive, floorplan={"name": "4xarm11"})
    assert player.floorplan.name == "4xarm11"


def test_specs_without_params_are_stored_as_bare_names():
    for spelling in ("windowed", {"name": "windowed"},
                     {"name": "windowed", "params": {}}):
        config = FrameworkConfig(emulation_backend=spelling)
        assert config.emulation_backend == "windowed"
    scenario = Scenario(name="s", workload="matrix",
                        floorplan={"name": "4xarm7", "params": {}})
    assert scenario.floorplan == "4xarm7"
    with_params = {"name": "hetero", "params": {"big": 1, "little": 1}}
    scenario = Scenario(name="s", workload="matrix", floorplan=with_params)
    assert scenario.floorplan == with_params
    assert canonical_spec(None) is None
