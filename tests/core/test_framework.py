"""Closed-loop framework tests (the paper's co-emulation loop)."""

import pytest

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.policy.builtin import (
    DualThresholdDfsPolicy,
    NoManagementPolicy,
    StopGoPolicy,
)
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ, MS


def hot_profile(cycles=1000):
    """A profile that keeps all four ARM11 cores near full power."""
    utilization = {}
    for i in range(4):
        utilization[("core", i)] = 0.98
        utilization[("icache", i)] = 0.5
        utilization[("dcache", i)] = 0.3
        utilization[("private_mem", i)] = 0.2
    utilization[("shared_mem", None)] = 0.2
    return ActivityProfile(
        name="hot", cycles_per_iteration=cycles, utilization=utilization,
        instructions_per_iteration=900,
    )


def make_framework(policy, iterations=40_000_000, **config_overrides):
    config = FrameworkConfig(
        virtual_hz=500 * MHZ,
        sampling_period_s=10 * MS,
        spreader_resolution=(2, 2),
        **config_overrides,
    )
    workload = ProfiledWorkload(hot_profile(), total_iterations=iterations)
    return EmulationFramework(
        platform=None,
        floorplan=floorplan_4xarm11(),
        workload=workload,
        policy=policy,
        config=config,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        FrameworkConfig(sampling_period_s=0)
    with pytest.raises(ValueError):
        FrameworkConfig(virtual_hz=0)


def test_needs_workload_without_platform():
    with pytest.raises(ValueError):
        EmulationFramework(platform=None, floorplan=floorplan_4xarm11())


def test_unmanaged_run_overheats():
    framework = make_framework(NoManagementPolicy())
    report = framework.run(max_emulated_seconds=25.0)
    assert report.peak_temperature_k > 360.0
    assert report.frequency_transitions == 0
    assert report.windows == 2500


def test_dfs_clamps_temperature_near_threshold():
    framework = make_framework(DualThresholdDfsPolicy(500 * MHZ, 100 * MHZ))
    report = framework.run(max_emulated_seconds=25.0)
    assert report.peak_temperature_k < 352.0  # held at the 350 K threshold
    assert report.frequency_transitions > 2
    # The throttled run completes less work per emulated second.
    duty_low = framework.trace.duty_cycle(100 * MHZ)
    assert duty_low > 0.2


def test_dfs_run_is_slower_but_cooler_than_unmanaged():
    managed = make_framework(DualThresholdDfsPolicy(), iterations=2_000_000)
    unmanaged = make_framework(NoManagementPolicy(), iterations=2_000_000)
    managed_report = managed.run(max_emulated_seconds=60.0)
    unmanaged_report = unmanaged.run(max_emulated_seconds=60.0)
    assert managed_report.peak_temperature_k < unmanaged_report.peak_temperature_k
    assert managed_report.emulated_seconds >= unmanaged_report.emulated_seconds


def test_stop_go_freezes_progress():
    framework = make_framework(StopGoPolicy(run_hz=500 * MHZ))
    report = framework.run(max_emulated_seconds=25.0)
    assert report.peak_temperature_k < 355.0
    assert framework.trace.duty_cycle(0.0) > 0.0  # some windows fully gated


def test_trace_is_consistent():
    framework = make_framework(DualThresholdDfsPolicy())
    framework.run(max_emulated_seconds=5.0)
    trace = framework.trace
    times = trace.times()
    assert all(b > a for a, b in zip(times, times[1:]))
    assert len(trace) == framework.windows
    sample = trace.samples[0]
    assert sample.total_power_w > 0
    assert set(sample.component_temps) == {
        c.name for c in framework.floorplan.active_components()
    }


def test_ethernet_congestion_freezes_vpcm():
    # A starved link (10 kbit/s) with a tiny buffer must force freezes.
    framework = make_framework(
        NoManagementPolicy(),
        ethernet_bandwidth_bps=10e3,
        bram_capacity_bytes=1024,
    )
    # Give the sniffer bank something to stream: attach a platform-less
    # bank is empty, so emulate payload via a fake sniffer.
    class _FakeSniffer:
        enabled = True
        name = "fake"
        fpga_overhead_percent = 0.3

        def record_bytes(self, record):
            return 5000

        def collect(self):
            return {}

    framework.sniffer_bank.add(_FakeSniffer())
    report = framework.run(max_windows=20)
    assert report.freeze_breakdown.get("ethernet-congestion", 0.0) > 0.0
    assert report.fpga_real_seconds > 20 * 0.05  # stretched + frozen


def test_run_bounded_by_windows():
    framework = make_framework(NoManagementPolicy())
    report = framework.run(max_windows=7)
    assert report.windows == 7
    assert not report.workload_done


def test_workload_completion_stops_run():
    framework = make_framework(NoManagementPolicy(), iterations=10_000)
    report = framework.run(max_emulated_seconds=10.0)
    assert report.workload_done
    assert report.emulated_seconds < 1.0


def test_direct_workload_end_to_end(platform2):
    """Short direct (instruction-level) co-emulation with a real program."""
    from repro.mpsoc.asm import assemble
    from repro.thermal.floorplan import floorplan_4xarm7

    program = assemble(
        """
        main:   li   r1, 2000
        loop:   addi r1, r1, -1
                bgt  r1, r0, loop
                halt
        """
    )
    platform2.load_program(0, program)
    platform2.load_program(1, program)
    config = FrameworkConfig(
        virtual_hz=100 * MHZ,
        sampling_period_s=20e-6,  # tiny windows keep the test fast
        spreader_resolution=(2, 2),
    )
    framework = EmulationFramework(
        platform=platform2,
        floorplan=floorplan_4xarm7(),
        policy=NoManagementPolicy(),
        config=config,
    )
    report = framework.run(max_windows=50)
    assert report.workload_done
    assert report.instructions > 4000
    assert framework.dispatcher.stats()["bytes_sent"] > 0
    assert report.peak_temperature_k > 300.0
