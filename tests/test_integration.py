"""Cross-module integration tests: the paper's flows end to end."""

import numpy as np

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.core.workload_model import ProfiledWorkload, profile_platform_run
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
from repro.policy.builtin import DualThresholdDfsPolicy, NoManagementPolicy
from repro.power.models import PowerModel
from repro.thermal.floorplan import floorplan_4xarm7, floorplan_4xarm11
from repro.util.units import KB, MHZ, MS
from repro.workloads.dithering import (
    dithering_programs,
    golden_dither,
    load_images,
    read_image,
)
from repro.workloads.matrix import matrix_programs


def arm11_platform(num_cores=4):
    return build_platform(
        MPSoCConfig(
            name="tm",
            cores=[
                CoreConfig(f"cpu{i}", spec="arm11", frequency_hz=500 * MHZ)
                for i in range(num_cores)
            ],
            icache=CacheConfig(name="i", size=8 * KB, line_size=16),
            dcache=CacheConfig(name="d", size=8 * KB, line_size=16, assoc=2),
            private_mem_size=32 * KB,
            shared_mem_size=32 * KB,
        )
    )


def test_figure6_shape_mini():
    """The Figure 6 experiment in miniature: profile the MATRIX kernel
    cycle-accurately, replay it hot, and check that DFS (350/340 K,
    500/100 MHz) clamps the temperature the unmanaged run exceeds."""
    platform = arm11_platform()
    platform.load_program_all(matrix_programs(4, n=8, iterations=1))
    power_model = PowerModel(floorplan_4xarm11())
    profile = profile_platform_run(platform, power_model, iterations=1)
    iterations = int(20.0 * 500e6 / profile.cycles_per_iteration)

    def run(policy):
        framework = EmulationFramework(
            platform=None,
            floorplan=floorplan_4xarm11(),
            workload=ProfiledWorkload(profile, total_iterations=iterations),
            policy=policy,
            config=FrameworkConfig(
                virtual_hz=500 * MHZ, spreader_resolution=(2, 2)
            ),
        )
        return framework, framework.run(max_emulated_seconds=60.0)

    _, unmanaged = run(NoManagementPolicy())
    managed_fw, managed = run(DualThresholdDfsPolicy(500 * MHZ, 100 * MHZ))
    assert unmanaged.peak_temperature_k > 352.0
    assert managed.peak_temperature_k < 352.0
    assert managed.frequency_transitions >= 2
    # DFS trades time for temperature.
    assert managed.emulated_seconds > unmanaged.emulated_seconds
    # The trace oscillates inside the hysteresis band once hot.
    trace = managed_fw.trace
    late = [s.max_temp_k for s in trace.samples[len(trace.samples) // 2 :]]
    assert min(late) > 335.0
    # The first sensor crossing is the over-upper one the policy reacts
    # to, and each sensor's crossings alternate (hysteresis).
    crossings = managed_fw.sensors.crossings()
    assert crossings[0][2] == "over-upper"
    per_component = {}
    for _, component, kind, _ in crossings:
        per_component.setdefault(component, []).append(kind)
    for component, kinds in per_component.items():
        assert all(a != b for a, b in zip(kinds, kinds[1:])), component


def test_dithering_noc_end_to_end():
    """The DITHERING driver on the paper's NoC platform: the design fits
    the V2VP30 and the emulated run produces the bit-exact image."""
    width = height = 16
    # The paper's dithering NoC: two switches (a 2x2 mesh of four does
    # not fit the V2VP30 once every component carries a sniffer).
    from repro.mpsoc.noc import generate_custom

    noc = generate_custom("noc", 2, ring=False, buffer_flits=3)
    platform = build_platform(
        MPSoCConfig(
            name="dith",
            cores=[CoreConfig(f"cpu{i}") for i in range(4)],
            icache=CacheConfig(name="i", size=4 * KB, line_size=16),
            dcache=CacheConfig(name="d", size=4 * KB, line_size=16),
            interconnect="noc",
            noc=noc,
        )
    )
    platform.load_program_all(dithering_programs(4, width, height, 1))
    inputs = load_images(platform, width, height, num_images=1)
    resources = platform.resource_report(
        num_count_sniffers=sum(1 for _ in platform.components())
    )
    assert resources["percent"] < 100
    framework = EmulationFramework(
        platform=platform,
        floorplan=floorplan_4xarm7(),
        policy=NoManagementPolicy(),
        config=FrameworkConfig(virtual_hz=100 * MHZ, sampling_period_s=1 * MS,
                               spreader_resolution=(2, 2)),
    )
    report = framework.run(max_windows=500)
    assert report.workload_done
    got = read_image(platform, 0, width, height)
    assert np.array_equal(got, golden_dither(inputs[0], num_segments=4))
    # The run produced statistics traffic and a thermal trace.
    assert framework.dispatcher.stats()["bytes_sent"] > 0
    assert len(framework.trace) == report.windows
    assert report.peak_temperature_k > 300.0


def test_vpcm_memory_freeze_integration():
    """A slow physical shared memory must raise VPCM suppression, and
    the framework must account it as board time."""
    platform = build_platform(
        MPSoCConfig(
            name="slowmem",
            cores=[CoreConfig("cpu0")],
            shared_mem_latency=2,
            shared_mem_physical_latency=20,
        )
    )
    from repro.mpsoc.asm import assemble
    from repro.mpsoc.platform import SHARED_BASE

    platform.load_program(
        0,
        assemble(
            f"""
            main:   li   r1, 0x{SHARED_BASE:08x}
                    li   r2, 50
            loop:   lw   r3, 0(r1)
                    addi r2, r2, -1
                    bgt  r2, r0, loop
                    halt
            """
        ),
    )
    framework = EmulationFramework(
        platform=platform,
        floorplan=floorplan_4xarm7(),
        policy=NoManagementPolicy(),
        config=FrameworkConfig(
            virtual_hz=100 * MHZ, sampling_period_s=50e-6,
            spreader_resolution=(2, 2),
        ),
    )
    report = framework.run(max_windows=20)
    assert report.workload_done
    assert report.freeze_breakdown.get("memory-latency", 0.0) > 0.0


def test_engines_agree_on_dithering():
    """The two engines dither identically (functional equivalence on an
    interconnect-bound workload)."""
    from repro.emulation.cycle_accurate import CycleAccurateEngine
    from repro.emulation.engine import EventDrivenEngine
    from tests.conftest import small_config

    results = []
    for engine_cls in (EventDrivenEngine, CycleAccurateEngine):
        platform = build_platform(small_config(2))
        load_images(platform, 8, 8, num_images=1)
        platform.load_program_all(dithering_programs(2, 8, 8, 1))
        engine = engine_cls(platform)
        if engine_cls is EventDrivenEngine:
            engine.run_to_completion()
        else:
            engine.run()
        results.append(read_image(platform, 0, 8, 8))
    assert np.array_equal(results[0], results[1])
