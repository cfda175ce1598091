"""Registry behavior: built-ins, lookup errors, custom registration."""

import pytest

from repro.policy.builtin import (
    DualThresholdDfsPolicy,
    NoManagementPolicy,
    PerCoreDfsPolicy,
    StopGoPolicy,
)
from repro.policy.exploration import PerDomainPolicy
from repro.scenario.registry import FLOORPLANS, POLICIES, WORKLOADS
from repro.util.registry import Registry


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
