"""Scenario serialization round-trips and framework construction."""

import json

import pytest

from repro.core.framework import FrameworkConfig, RunReport
from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.mpsoc.bus import BusConfig
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.noc import generate_mesh
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.policy.builtin import DualThresholdDfsPolicy
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.util.units import KB, MHZ


def bus_platform(name="t"):
    return MPSoCConfig(
        name=name,
        cores=[CoreConfig(f"cpu{i}") for i in range(2)],
        icache=CacheConfig(name="i", size=1 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=1 * KB, line_size=16, assoc=2),
        shared_mem_size=64 * KB,
        bus=BusConfig(name="b", kind="plb"),
    )


def noc_platform(name="n"):
    return MPSoCConfig(
        name=name,
        cores=[CoreConfig(f"cpu{i}") for i in range(4)],
        interconnect="noc",
        noc=generate_mesh("m", 2, 2),
        noc_placement={"cpu0": "sw0_0"},
    )


def full_scenario():
    return Scenario(
        name="full",
        description="round-trip fixture",
        platform=bus_platform(),
        floorplan="4xarm7",
        workload=WorkloadSpec("matrix", {"n": 4, "iterations": 2}),
        policy=PolicySpec("dual_threshold", {"high_hz": 5e8, "low_hz": 1e8}),
        config=FrameworkConfig(
            virtual_hz=500 * MHZ,
            spreader_resolution=(2, 2),
            monitored_components=("arm7_0", "arm7_1"),
        ),
        max_emulated_seconds=1.0,
        max_windows=10,
    )


def test_json_round_trip_bus():
    scenario = full_scenario()
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario


def test_json_round_trip_noc():
    scenario = Scenario(
        name="noc", platform=noc_platform(), workload=WorkloadSpec("matrix")
    )
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario
    assert rebuilt.platform.noc.links == scenario.platform.noc.links


def test_round_trip_builds_equivalent_framework():
    scenario = full_scenario()
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    a = scenario.build()
    b = rebuilt.build()
    assert a.floorplan.name == b.floorplan.name == "4xarm7"
    assert len(a.platform.cores) == len(b.platform.cores) == 2
    assert type(a.policy) is type(b.policy) is DualThresholdDfsPolicy
    assert a.config == b.config
    assert set(a.sensors.sensors) == set(b.sensors.sensors) == {"arm7_0", "arm7_1"}


def test_shorthand_workload_and_policy():
    scenario = Scenario.from_dict(
        {"name": "s", "workload": "matrix", "policy": "none",
         "platform": bus_platform().to_dict()}
    )
    assert scenario.workload == WorkloadSpec("matrix")
    assert scenario.policy == PolicySpec("none")


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario keys: platfrom"):
        Scenario.from_dict({"name": "s", "workload": "matrix", "platfrom": {}})
    with pytest.raises(ValueError, match="needs a 'workload'"):
        Scenario.from_dict({"name": "s"})
    with pytest.raises(ValueError, match="needs a 'name'"):
        Scenario.from_dict({"workload": "matrix"})


def test_build_unknown_names_error():
    scenario = Scenario(
        name="s", workload=WorkloadSpec("matrix"), platform=bus_platform(),
        floorplan="8xarm99",
    )
    with pytest.raises(ValueError, match="unknown floorplan"):
        scenario.build()
    scenario = Scenario(
        name="s", workload=WorkloadSpec("no_such_kernel"), platform=bus_platform()
    )
    with pytest.raises(ValueError, match="unknown workload generator"):
        scenario.build()


def test_profiled_scenario_runs_without_platform():
    profile = ActivityProfile(
        name="p", cycles_per_iteration=1000.0,
        utilization={("core", i): 0.9 for i in range(4)},
        instructions_per_iteration=800.0,
    )
    scenario = Scenario(
        name="profiled",
        workload=WorkloadSpec(
            "profiled", {"profile": profile.to_dict(), "total_iterations": 50_000}
        ),
        floorplan="4xarm11",
        config=FrameworkConfig(virtual_hz=500 * MHZ, spreader_resolution=(2, 2)),
    )
    framework, report = scenario.run()
    assert isinstance(framework.workload, ProfiledWorkload)
    assert report.workload_done
    assert report.windows > 0


def test_activity_profile_round_trip():
    profile = ActivityProfile(
        name="p", cycles_per_iteration=123.0,
        utilization={("core", 0): 0.5, ("shared_mem", None): 0.25},
        instructions_per_iteration=99.0,
    )
    rebuilt = ActivityProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
    assert rebuilt == profile


def test_direct_scenario_report_extras():
    scenario = Scenario(
        name="direct", platform=bus_platform(), floorplan="4xarm7",
        workload=WorkloadSpec("matrix", {"n": 4}),
    )
    _, report = scenario.run()
    assert report.workload_done
    assert report.extras["end_cycle"] > 0
    assert "interconnect" in report.extras


def test_run_report_round_trip_and_summary():
    scenario = Scenario(
        name="direct", platform=bus_platform(), floorplan="4xarm7",
        workload=WorkloadSpec("matrix", {"n": 4}),
    )
    _, report = scenario.run()
    rebuilt = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert rebuilt == report
    text = report.summary()
    assert "workload done" in text
    assert "peak" in text and "K" in text


def test_canonical_dict_is_the_canonical_to_dict_and_shares_nothing():
    """The digest's canonical form walks the live specs: it must equal
    canonicalizing a ``to_dict()`` copy, and editing it must not reach
    the scenario."""
    from repro.dse.space import default_points, point_scenario
    from repro.util.jsondata import json_canonical

    scenario = point_scenario(default_points()[0])
    scenario.policy = PolicySpec("dual_threshold_dfs", {"levels": (1, 2)})
    scenario.floorplan = {"name": "hetero", "params": {"big": 1, "little": 0}}
    before = json.dumps(scenario.to_dict(), sort_keys=True)
    data = scenario.canonical_dict()
    assert data == json_canonical(scenario.to_dict())
    assert data["policy"]["params"]["levels"] == [1, 2]
    data["workload"]["params"]["profile"]["name"] = "edited"
    data["policy"]["params"]["levels"].append(3)
    data["floorplan"]["params"]["big"] = 9
    assert json.dumps(scenario.to_dict(), sort_keys=True) == before
