"""``flat_stats()``, the counter read a count-logging sniffer takes once
per window, against its definition ``flatten_numeric(stats())``: the
same keys in the same order with the same values, on every monitored
component class — before a run, after one, and after its counter sets
grow (a late instruction class, a late bus master, a new NoC link)."""

import pytest

from repro.core.stats import flatten_numeric
from repro.dse.space import default_points, point_scenario
from repro.mpsoc.memory import Memory, MemoryConfig
from repro.mpsoc.noc import Noc, generate_mesh
from repro.scenario.presets import PRESETS

MONITORED = {"Processor", "MemoryController", "Cache", "Memory", "Bus", "Noc"}


def assert_flat_matches(component):
    flat = component.flat_stats()
    reference = flatten_numeric(component.stats())
    assert list(flat) == list(reference), component.name
    assert [(v, type(v)) for v in flat.values()] == [
        (v, type(v)) for v in reference.values()
    ], component.name
    # A fresh dict every read: a window keeps its snapshot.
    assert component.flat_stats() is not flat


def assert_platform_matches(platform):
    classes = set()
    for _, component in platform.components():
        assert_flat_matches(component)
        classes.add(type(component).__name__)
    return classes


def hetero_scenario():
    point = next(p for p in default_points() if p.big and p.little)
    return point_scenario(point, max_windows=4)


SCENARIOS = {
    "matrix_quickstart": lambda: PRESETS.get("matrix_quickstart")(),
    "dithering_noc": lambda: PRESETS.get("dithering_noc")(),
    "dse_hetero": hetero_scenario,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_flat_stats_match_the_nested_stats(scenario):
    spec = SCENARIOS[scenario]()
    framework = spec.build()
    platform = framework.platform
    assert_platform_matches(platform)
    framework.run(*spec.bounds)
    assert framework.windows >= 1
    # The DSE point runs a profiled workload: its platform never steps.
    moved = platform.cores[0].stats()["cycles"] > 0
    assert moved == (scenario != "dse_hetero")
    assert_platform_matches(platform)
    platform.cores[0].class_counts["late_class"] = 7
    platform.interconnect.register_master("late_master")
    assert_platform_matches(platform)
    assert "class_counts.late_class" in platform.cores[0].flat_stats()


def test_every_monitored_class_is_covered():
    covered = set()
    for make in SCENARIOS.values():
        covered |= assert_platform_matches(make().build().platform)
    assert covered == MONITORED


def test_flat_stats_follow_new_noc_links():
    noc = Noc(generate_mesh("noc", 2, 2))
    slave = Memory(MemoryConfig(name="mem", size=4096, latency=2))
    noc.register_endpoint(slave.name, "sw1_1")
    first = noc.register_master("cpu0.bridge", "sw0_0")
    assert_flat_matches(noc)
    noc.transfer(first, slave, 0x0, False, 1, t=0)
    assert_flat_matches(noc)
    links = set(noc.link_flits)
    for index, switch in enumerate(("sw0_1", "sw1_0")):
        master = noc.register_master(f"cpu{index + 1}.bridge", switch)
        noc.transfer(master, slave, 0x10, True, 2, t=100 * (index + 1))
    assert set(noc.link_flits) > links
    assert_flat_matches(noc)
