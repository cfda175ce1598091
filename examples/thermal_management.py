#!/usr/bin/env python3
"""Run-time thermal management: the Figure 6 experiment, scaled down.

Profiles the MATRIX kernel cycle-accurately on a 4x ARM11 platform at
500 MHz, then declares the policy comparison as one base
:class:`Scenario` carrying the measured profile and sweeps the policy
spec — unmanaged, the paper's dual-threshold DFS, and stop-go clock
gating — executing all variants in parallel through :class:`Runner`.
Prints each temperature trace as an ASCII chart and the management
summary.

Run:  python examples/thermal_management.py [--seconds 30]
"""

import argparse

from repro.core.framework import FrameworkConfig
from repro.core.workload_model import profile_platform_run
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
from repro.power.models import PowerModel
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario, WorkloadSpec
from repro.scenario.sweep import Variant, sweep
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import KB, MHZ
from repro.workloads.matrix import matrix_programs


def build_arm11_platform():
    return build_platform(
        MPSoCConfig(
            name="matrix-tm",
            cores=[
                CoreConfig(f"cpu{i}", spec="arm11", frequency_hz=500 * MHZ)
                for i in range(4)
            ],
            icache=CacheConfig(name="icache", size=8 * KB, line_size=16),
            dcache=CacheConfig(name="dcache", size=8 * KB, line_size=16, assoc=2),
            private_mem_size=32 * KB,
            shared_mem_size=32 * KB,
        )
    )


def first_crossing(trace):
    """(time, component, temperature) of the first sensor event, or None."""
    for sample in trace.samples:
        if sample.events:
            component = sample.events[0][0]
            return sample.time_s, component, sample.component_temps[component]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="emulated seconds of stress at full speed")
    args = parser.parse_args()

    print("Profiling one MATRIX iteration cycle-accurately...")
    platform = build_arm11_platform()
    platform.load_program_all(matrix_programs(4, n=16, iterations=1))
    power_model = PowerModel(floorplan_4xarm11())
    profile = profile_platform_run(platform, power_model, iterations=1,
                                   name="matrix")
    print(f"  {profile.cycles_per_iteration:.0f} cycles per iteration, "
          f"core utilization "
          f"{profile.utilization[('core', 0)] * 100:.0f}%\n")

    iterations = int(args.seconds * 500e6 / profile.cycles_per_iteration)
    horizon = args.seconds * 6  # DFS runs slower; give it room to finish
    base = Scenario(
        name="matrix-tm",
        workload=WorkloadSpec(
            "profiled",
            {"profile": profile.to_dict(), "total_iterations": iterations},
        ),
        floorplan="4xarm11",
        config=FrameworkConfig(virtual_hz=500 * MHZ),
        max_emulated_seconds=horizon,
    )
    policies = [
        Variant("no management", {"name": "none"}),
        Variant(
            "dual-threshold DFS 350/340 K",
            {"name": "dual_threshold",
             "params": {"high_hz": 500 * MHZ, "low_hz": 100 * MHZ}},
        ),
        Variant(
            "stop-go clock gating",
            {"name": "stop_go", "params": {"run_hz": 500 * MHZ}},
        ),
    ]
    scenarios = sweep(base, {"policy": policies})
    results = Runner(workers=len(scenarios), capture_trace=True).run(scenarios)

    for result, policy in zip(results, policies):
        print("=" * 74)
        print(f"Policy: {policy.label}")
        if not result.ok:
            print(f"  FAILED — {result.error}")
            continue
        report = result.report
        print(
            f"  peak {report.peak_temperature_k:.1f} K | "
            f"final {report.final_temperature_k:.1f} K | "
            f"emulated {report.emulated_seconds:.1f} s | "
            f"board {report.fpga_real_seconds:.1f} s | "
            f"DFS switches {report.frequency_transitions}"
        )
        if report.frequency_transitions:
            duty = result.trace.duty_cycle(100 * MHZ)
            gated = result.trace.duty_cycle(0.0)
            print(f"  time at 100 MHz: {duty * 100:.0f}%  |  gated: {gated * 100:.0f}%")
        print(result.trace.ascii_chart(width=66, height=12))
        crossing = first_crossing(result.trace)
        if crossing:
            time_s, component, temp = crossing
            print(f"  first threshold crossing: {component} at {time_s:.2f} s "
                  f"({temp:.1f} K)")


if __name__ == "__main__":
    main()
