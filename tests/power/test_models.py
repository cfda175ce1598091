"""Activity-to-power model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.power.models import (
    ACTIVE_WEIGHT,
    IDLE_WEIGHT,
    STALL_WEIGHT,
    PowerModel,
)
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ


@pytest.fixture
def model():
    return PowerModel(floorplan_4xarm11())


def stats_delta(active=800, stall=100, idle=100, icache=500, dcache=300):
    return {
        "cores": {
            f"cpu{i}": {
                "active_cycles": active,
                "stall_cycles": stall,
                "idle_cycles": idle,
            }
            for i in range(4)
        },
        "icaches": {f"cpu{i}.icache": {"accesses": icache} for i in range(4)},
        "dcaches": {f"cpu{i}.dcache": {"accesses": dcache} for i in range(4)},
        "private_mems": {
            f"cpu{i}.private_mem": {"reads": 40, "writes": 10} for i in range(4)
        },
        "shared_mem": {"reads": 100, "writes": 50},
        "interconnect": {"switch_flits": {"sw0": 400, "sw1": 0}, "busy_cycles": 200},
    }


def test_activity_extraction(model):
    activity = model.utilization_map(
        model.activity_from_stats(stats_delta(), window_cycles=1000)
    )
    expected_core = (
        ACTIVE_WEIGHT * 800 + STALL_WEIGHT * 100 + IDLE_WEIGHT * 100
    ) / 1000
    assert activity.get(("core", 0)) == pytest.approx(expected_core)
    assert activity.get(("icache", 2)) == pytest.approx(0.5)
    assert activity.get(("dcache", 1)) == pytest.approx(0.3)
    assert activity.get(("private_mem", 0)) == pytest.approx(0.05)
    assert activity.get(("shared_mem", None)) == pytest.approx(0.15)
    assert activity.get(("noc_switch", "sw0")) == pytest.approx(400 / 4000)
    # 4xarm11 has no bus region: the bus counter has no slot to land in.
    assert ("bus", None) not in activity


def test_bus_activity_on_a_bus_floorplan():
    from repro.thermal.floorplan import floorplan_hetero

    model = PowerModel(floorplan_hetero())
    activity = model.utilization_map(
        model.activity_from_stats(stats_delta(), window_cycles=1000)
    )
    assert activity[("bus", None)] == pytest.approx(0.2)


def test_activity_clamped_to_one(model):
    activity = model.utilization_map(model.activity_from_stats(
        stats_delta(active=5000, icache=9000, dcache=-300), window_cycles=1000
    ))
    assert activity.get(("core", 0)) == 1.0
    assert activity.get(("icache", 0)) == 1.0
    assert activity.get(("dcache", 0)) == 0.0


def test_stats_utilization_map_keeps_every_reported_source(model):
    delta = stats_delta(icache=9000, dcache=-300)
    mapping = model.stats_utilization_map(delta, window_cycles=1000)
    # The bus has no slot on 4xarm11, yet a profile keeps its activity.
    assert mapping[("bus", None)] == pytest.approx(0.2)
    assert mapping[("icache", 0)] == 1.0 and mapping[("dcache", 0)] == 0.0
    vector = model.activity_from_stats(delta, window_cycles=1000)
    assert model.utilization_map(vector) == {
        source: mapping.get(source, 0.0) for source in model.sources
    }
    assert model.stats_utilization_map(delta, window_cycles=0) == {}


def test_component_power_refuses_another_models_vector(model):
    from repro.thermal.floorplan import floorplan_hetero

    other = PowerModel(floorplan_hetero())
    assert len(other.sources) != len(model.sources)
    vector = other.utilization_vector({("core", 0): 0.5})
    with pytest.raises(ValueError, match="not laid out"):
        model.component_power(vector)


def test_empty_window(model):
    activity = model.activity_from_stats(stats_delta(), window_cycles=0)
    assert activity.tolist() == [0.0] * (len(model.sources) + 1)


def test_component_power_scaling(model):
    activity = model.utilization_vector({("core", i): 1.0 for i in range(4)})
    powers = model.power_map(activity, frequency_hz=500 * MHZ)
    assert powers["arm11_0"] == pytest.approx(1.5)
    # At 100 MHz (DFS low point), one fifth the power.
    low = model.power_map(activity, frequency_hz=100 * MHZ)
    assert low["arm11_0"] == pytest.approx(0.3)
    # Idle components and filler draw nothing.
    assert powers["icache_0"] == 0.0
    assert all(powers[name] == 0.0 for name in powers if name.startswith("fill"))


def test_per_core_frequency_overrides(model):
    activity = model.utilization_vector({
        **{("core", i): 1.0 for i in range(4)},
        **{("icache", i): 0.5 for i in range(4)},
    })
    powers = model.power_map(
        activity,
        frequency_hz=500 * MHZ,
        core_frequencies={0: 100 * MHZ},
    )
    assert powers["arm11_0"] == pytest.approx(0.3)  # throttled core
    assert powers["arm11_1"] == pytest.approx(1.5)  # others untouched
    # Non-core components follow the global frequency.
    assert powers["icache_0"] == powers["icache_1"]


def test_total_and_peak_power(model):
    activity = model.utilization_vector({
        comp.activity_source: 1.0
        for comp in model.floorplan.active_components()
    })
    total = model.total_power(activity, frequency_hz=500 * MHZ)
    assert total == pytest.approx(model.peak_power(frequency_hz=500 * MHZ))
    # 4 ARM11 at full power dominate: more than 6 W, less than 12 W.
    assert 6.0 < total < 12.0


def test_unknown_power_class_rejected():
    from repro.thermal.floorplan import Floorplan, FloorplanComponent

    plan = Floorplan(
        name="bad",
        width=1.0,
        height=1.0,
        components=[
            FloorplanComponent("x", 0, 0, 1, 1, "mystery", ("core", 0)),
        ],
    )
    with pytest.raises(KeyError):
        PowerModel(plan)


def test_utilization_vector_layout(model):
    vector = model.utilization_vector(
        {("core", 1): 0.25, ("missing", 9): 0.5, ("icache", 0): 1.5}
    )
    # One slot per source in first-use order plus the passive slot;
    # unknown sources drop out and values are not clamped here.
    assert len(vector) == len(model.sources) + 1
    assert model.utilization_map(vector) == {
        source: {("core", 1): 0.25, ("icache", 0): 1.5}.get(source, 0.0)
        for source in model.sources
    }
    assert vector[-1] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    util=st.floats(min_value=0.0, max_value=1.0),
    f=st.floats(min_value=50e6, max_value=500e6),
)
def test_power_monotone_in_utilization_and_frequency(util, f):
    """Property: power never decreases when utilization or clock rise."""
    model = PowerModel(floorplan_4xarm11())
    activity_lo = model.utilization_vector({("core", 0): util * 0.5})
    activity_hi = model.utilization_vector({("core", 0): util})
    lo = model.power_map(activity_lo, frequency_hz=f)["arm11_0"]
    hi = model.power_map(activity_hi, frequency_hz=f)["arm11_0"]
    hi_f = model.power_map(activity_hi, frequency_hz=f * 1.5)["arm11_0"]
    assert lo <= hi <= hi_f + 1e-12


def loop_component_power(model, activity, frequency_hz=None, core_frequencies=None):
    """The per-component scalar model the vectorized power replays."""
    powers = []
    node = model.tech_node
    for comp in model.floorplan.components:
        if comp.is_filler:
            continue
        if comp.activity_source is None:
            powers.append(0.0)
            continue
        cls = model.library[comp.power_class]
        f = frequency_hz
        if (
            core_frequencies is not None
            and comp.activity_source[0] == "core"
            and comp.activity_source[1] in core_frequencies
        ):
            f = core_frequencies[comp.activity_source[1]]
        power = cls.power_at(activity.get(comp.activity_source, 0.0), f)
        if node is not None and power > 0.0:
            power *= node.voltage_scale(cls.ref_hz if f is None else f)
        powers.append(power)
    return powers


@settings(max_examples=60, deadline=None)
@given(
    utils=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=21,
                   max_size=21),
    f=st.one_of(st.none(), st.floats(min_value=1e6, max_value=800e6)),
    throttled=st.dictionaries(st.integers(0, 3),
                              st.floats(min_value=1e6, max_value=800e6)),
    node=st.sampled_from([None, "130nm", "90nm", "65nm"]),
)
def test_vector_power_matches_per_component_loop_bitwise(utils, f, throttled,
                                                         node):
    model = PowerModel(floorplan_4xarm11(), tech_node=node)
    sources = [c.activity_source for c in model.floorplan.active_components()
               if c.activity_source is not None]
    activity = dict(zip(sources, utils))
    watts = model.component_power(
        model.utilization_vector(activity), f, throttled or None
    )
    assert watts.tolist() == loop_component_power(
        model, activity, f, throttled or None
    )
    assert model.component_names == tuple(
        c.name for c in model.floorplan.components if not c.is_filler
    )


def test_out_of_range_utilization_names_the_power_class(model):
    activity = model.utilization_vector({("icache", 2): 1.5})
    with pytest.raises(ValueError, match="icache_8k_dm: utilization 1.5"):
        model.component_power(activity, 500 * MHZ)
