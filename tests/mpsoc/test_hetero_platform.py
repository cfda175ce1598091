"""Heterogeneous platform helpers and the framework's per-core clock merge."""

import pytest

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.mpsoc.platform import CORE_SPECS, CoreConfig, MPSoCConfig, Platform
from repro.thermal.floorplan import floorplan_hetero
from repro.util.units import KB, MHZ


def hetero_config(big_hz=250 * MHZ):
    return MPSoCConfig(
        name="hetero_test",
        cores=[
            CoreConfig("big0", spec="ppc405", frequency_hz=big_hz),
            CoreConfig("big1", spec="ppc405", frequency_hz=big_hz),
            CoreConfig("lil0", spec="microblaze", frequency_hz=100 * MHZ),
        ],
        private_mem_size=4 * KB,
        shared_mem_size=16 * KB,
    )


def homo_config():
    return MPSoCConfig(
        name="homo_test",
        cores=[CoreConfig(f"cpu{i}", spec="microblaze") for i in range(2)],
        shared_mem_size=16 * KB,
    )


def test_core_class_counts():
    assert hetero_config().core_class_counts() == {
        "ppc405": 2, "microblaze": 1
    }
    assert homo_config().core_class_counts() == {"microblaze": 2}


def test_static_core_frequencies():
    frequencies = hetero_config().static_core_frequencies()
    assert frequencies == {0: 250 * MHZ, 1: 250 * MHZ, 2: 100 * MHZ}
    # Unpinned cores fall back to their spec's default clock.
    default = homo_config().static_core_frequencies()
    assert default == {i: CORE_SPECS["microblaze"].default_hz for i in (0, 1)}


def test_is_heterogeneous():
    assert hetero_config().is_heterogeneous
    assert not homo_config().is_heterogeneous
    # Same spec at different clocks also counts as heterogeneous.
    mixed_clock = MPSoCConfig(
        name="mixed_clock",
        cores=[
            CoreConfig("a", spec="microblaze", frequency_hz=100 * MHZ),
            CoreConfig("b", spec="microblaze", frequency_hz=50 * MHZ),
        ],
        shared_mem_size=16 * KB,
    )
    assert mixed_clock.is_heterogeneous


def test_hetero_config_round_trips():
    config = hetero_config()
    clone = MPSoCConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    assert clone.is_heterogeneous


def hetero_framework(big_hz=200 * MHZ):
    config = hetero_config(big_hz)
    platform = Platform(config)
    return EmulationFramework(
        platform,
        floorplan_hetero(big=2, little=1),
        config=FrameworkConfig(virtual_hz=big_hz, spreader_resolution=(2, 2)),
    )


def test_framework_detects_heterogeneous_clocks():
    framework = hetero_framework()
    assert framework._hetero_core_hz == {
        0: 200 * MHZ, 1: 200 * MHZ, 2: 100 * MHZ
    }
    homo = EmulationFramework(
        Platform(homo_config()),
        floorplan_hetero(big=0, little=2),
        config=FrameworkConfig(spreader_resolution=(2, 2)),
    )
    assert homo._hetero_core_hz is None


def test_little_cores_draw_proportionally_less_power():
    # Identical utilization on every core: the little core's component
    # power must reflect its slower static clock (100 vs 200 MHz) on top
    # of its smaller power class.
    framework = hetero_framework(big_hz=200 * MHZ)
    from repro.power.models import ActivityVector

    activity = ActivityVector(1, {("core", i): 1.0 for i in range(3)})
    powers = framework.power_model.power_map(
        activity,
        frequency_hz=200 * MHZ,
        core_frequencies={0: 200 * MHZ, 1: 200 * MHZ, 2: 100 * MHZ},
    )
    by_source = {
        c.activity_source: powers[c.name]
        for c in framework.floorplan.active_components()
    }
    assert by_source[("core", 0)] == pytest.approx(by_source[("core", 1)])
    assert by_source[("core", 2)] < by_source[("core", 0)]
