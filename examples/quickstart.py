#!/usr/bin/env python3
"""Quickstart: build an emulated MPSoC, run a real workload, read the
statistics and temperatures the framework extracts.

This walks the paper's Figure 1 architecture and Figure 5 flow in one
page: four Microblaze-class cores with I/D caches and private memories,
a shared memory on the custom bus, count-logging sniffers everywhere,
and the SW thermal model closing the loop every 10 ms of emulated time.

Run:  python examples/quickstart.py
"""

from repro import (
    CacheConfig,
    CoreConfig,
    EmulationFramework,
    FrameworkConfig,
    MPSoCConfig,
    NoManagementPolicy,
    build_platform,
    floorplan_4xarm7,
    matrix_programs,
)
from repro.util.records import Table
from repro.util.units import KB, MHZ


def main():
    # --- Phase 1: define the HW architecture (Figure 1) -------------------
    config = MPSoCConfig(
        name="quickstart",
        cores=[CoreConfig(f"cpu{i}", spec="microblaze") for i in range(4)],
        icache=CacheConfig(name="icache", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="dcache", size=4 * KB, line_size=16),
        private_mem_size=16 * KB,
        shared_mem_size=64 * KB,
        interconnect="bus",
    )
    platform = build_platform(config)
    print(f"Platform '{platform.name}':")
    for name, _ in platform.components():
        print(f"  - {name}")
    resources = platform.resource_report(num_count_sniffers=10)
    print(
        f"FPGA utilization estimate: {resources['percent']:.0f}% of a "
        f"Virtex-2 Pro VP30 ({resources['total']} slices)\n"
    )

    # --- Phase 1b: compile & load the SW driver ---------------------------
    platform.load_program_all(matrix_programs(4, n=8, iterations=2))

    # --- Phase 2: floorplan + co-emulation parameters ----------------------
    framework = EmulationFramework(
        platform=platform,
        floorplan=floorplan_4xarm7(),
        policy=NoManagementPolicy(),
        config=FrameworkConfig(
            virtual_hz=100 * MHZ,
            sampling_period_s=100e-6,  # small windows: the kernel is short
        ),
    )

    # --- Phase 3: the autonomous co-emulation run --------------------------
    report = framework.run(max_windows=100)

    print("Run report:")
    print(f"  emulated time       : {report.emulated_seconds * 1e3:.2f} ms")
    print(f"  board (FPGA) time   : {report.fpga_real_seconds * 1e3:.2f} ms")
    print(f"  instructions        : {report.instructions:.0f}")
    print(f"  sampling windows    : {report.windows}")
    print(f"  workload completed  : {report.workload_done}")
    print(f"  peak temperature    : {report.peak_temperature_k:.2f} K")
    print(f"  statistics traffic  : {report.dispatcher['bytes_sent']} bytes "
          f"in {report.dispatcher['mac_frames']} MAC frames\n")

    table = Table(["core", "instructions", "cycles", "CPI", "activity"],
                  title="Per-core statistics (from the count-logging sniffers)")
    for core in platform.cores:
        stats = core.stats()
        table.add_row(
            core.name,
            stats["instructions"],
            stats["cycles"],
            f"{stats['cpi']:.2f}",
            f"{stats['activity'] * 100:.0f}%",
        )
    print(table)

    print("\nCache behaviour:")
    for cache in platform.icaches + platform.dcaches:
        stats = cache.stats()
        print(
            f"  {cache.name}: {stats['accesses']} accesses, "
            f"{stats['miss_rate'] * 100:.2f}% miss rate"
        )

    bus = platform.interconnect.stats()
    print(
        f"\nBus: {bus['transactions']} transactions, "
        f"{bus['wait_cycles']} cycles of arbitration wait"
    )

    print("\nComponent temperatures after the run:")
    temps = framework.network.as_map(framework.solver.component_temperatures())
    for name, temp in sorted(temps.items()):
        if not name.startswith("fill"):
            print(f"  {name:12s} {temp:8.3f} K")


if __name__ == "__main__":
    main()
