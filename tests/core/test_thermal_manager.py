"""Thermal-management policy tests."""

import pytest

from repro.core.vpcm import Vpcm
from repro.policy.builtin import (
    DualThresholdDfsPolicy,
    NoManagementPolicy,
    PerCoreDfsPolicy,
    StopGoPolicy,
)
from repro.thermal.sensors import SensorBank
from repro.util.units import MHZ


def make_bank(**temps):
    bank = SensorBank(list(temps), upper_kelvin=350.0, lower_kelvin=340.0)
    bank.update(temps, time=0.0)
    return bank


def test_no_management_never_touches_clock():
    vpcm = Vpcm(virtual_hz=500 * MHZ)
    policy = NoManagementPolicy()
    bank = make_bank(core0=400.0)
    assert policy.react(bank, vpcm, 1.0) == 500 * MHZ
    assert vpcm.transitions == []


def test_dual_threshold_scales_down_and_up():
    vpcm = Vpcm(virtual_hz=500 * MHZ)
    policy = DualThresholdDfsPolicy(high_hz=500 * MHZ, low_hz=100 * MHZ)
    bank = make_bank(core0=355.0)
    assert policy.react(bank, vpcm, 1.0) == 100 * MHZ
    assert vpcm.virtual_hz == 100 * MHZ
    # Still hot in the hysteresis band: stays low.
    bank.update({"core0": 345.0}, 2.0)
    assert policy.react(bank, vpcm, 2.0) == 100 * MHZ
    # Cooled below the lower threshold: back to full speed.
    bank.update({"core0": 335.0}, 3.0)
    assert policy.react(bank, vpcm, 3.0) == 500 * MHZ
    assert policy.switches == 2


def test_dual_threshold_any_component_triggers():
    vpcm = Vpcm(virtual_hz=500 * MHZ)
    policy = DualThresholdDfsPolicy()
    bank = make_bank(core0=330.0, mem0=351.0)
    policy.react(bank, vpcm, 0.0)
    assert vpcm.virtual_hz == 100 * MHZ


def test_dual_threshold_validates():
    with pytest.raises(ValueError):
        DualThresholdDfsPolicy(high_hz=100 * MHZ, low_hz=100 * MHZ)


def test_stop_go_halts_clock():
    vpcm = Vpcm(virtual_hz=500 * MHZ)
    policy = StopGoPolicy(run_hz=500 * MHZ)
    bank = make_bank(core0=360.0)
    assert policy.react(bank, vpcm, 0.0) == 0.0
    assert vpcm.virtual_hz == 0.0
    bank.update({"core0": 339.0}, 1.0)
    assert policy.react(bank, vpcm, 1.0) == 500 * MHZ


def test_per_core_policy_throttles_only_hot_core():
    vpcm = Vpcm(virtual_hz=500 * MHZ)
    policy = PerCoreDfsPolicy(
        {"arm11_0": 0, "arm11_1": 1}, high_hz=500 * MHZ, low_hz=100 * MHZ
    )
    bank = make_bank(arm11_0=360.0, arm11_1=320.0)
    policy.react(bank, vpcm, 0.0)
    freqs = policy.core_frequencies()
    assert freqs[0] == 100 * MHZ
    assert freqs[1] == 500 * MHZ
    # Shared fabric keeps the global clock.
    assert vpcm.virtual_hz == 500 * MHZ
    # Core 0 cools: restored.
    bank.update({"arm11_0": 335.0}, 1.0)
    policy.react(bank, vpcm, 1.0)
    assert policy.core_frequencies()[0] == 500 * MHZ


def test_per_core_policy_ignores_unknown_sensors():
    vpcm = Vpcm()
    policy = PerCoreDfsPolicy({"ghost": 0})
    bank = make_bank(core0=360.0)
    policy.react(bank, vpcm, 0.0)
    assert policy.core_frequencies()[0] == policy.high_hz


def test_per_core_policy_bind_fails_fast_on_missing_sensors():
    # Regression: a typo'd core_components map used to silently
    # `continue` in react(), running the platform effectively unmanaged.
    # Binding against the framework's sensor bank must list every
    # missing name instead.
    from repro.core.framework import EmulationFramework, FrameworkConfig
    from repro.core.workload_model import ActivityProfile, ProfiledWorkload
    from repro.thermal.floorplan import floorplan_4xarm11

    policy = PerCoreDfsPolicy({"arm11_0": 0, "arm99_1": 1, "ghost": 2})
    with pytest.raises(ValueError) as excinfo:
        EmulationFramework(
            platform=None,
            floorplan=floorplan_4xarm11(),
            workload=ProfiledWorkload(
                ActivityProfile(
                    name="p",
                    cycles_per_iteration=1000,
                    utilization={("core", 0): 0.9},
                ),
                total_iterations=10**6,
            ),
            policy=policy,
            config=FrameworkConfig(
                virtual_hz=500 * MHZ, spreader_resolution=(2, 2)
            ),
        )
    message = str(excinfo.value)
    assert "arm99_1" in message and "ghost" in message
    assert "arm11_0" not in message.split("monitored")[0]


def test_per_core_policy_validates():
    with pytest.raises(ValueError):
        PerCoreDfsPolicy({}, high_hz=1.0, low_hz=2.0)


def test_global_policies_have_no_core_overrides():
    assert NoManagementPolicy().core_frequencies() is None
    assert DualThresholdDfsPolicy().core_frequencies() is None
    assert StopGoPolicy().core_frequencies() is None
