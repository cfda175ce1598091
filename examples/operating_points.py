#!/usr/bin/env python3
"""Thermal operating-point analysis: designing a DFS policy offline.

Before committing to the paper's 500/100 MHz dual-point policy, a
designer wants to know which operating points can hold which ceilings
at all.  This example sweeps the clock for both Figure 4 floorplans,
prints the steady-state map, and answers the two design questions the
DFS ablation raises: what is the slowest clock that still holds 350 K,
and why a 250 MHz low point silently fails.

Run:  python examples/operating_points.py
"""

from repro.thermal.analysis import OperatingPointAnalyzer
from repro.thermal.floorplan import floorplan_4xarm7, floorplan_4xarm11
from repro.util.records import Table
from repro.util.units import MHZ

WORKLOAD_UTILIZATION = 0.95  # a MATRIX-TM-class stress workload
CEILING = 350.0


def sweep_floorplan(plan, frequencies):
    analyzer = OperatingPointAnalyzer(plan, spreader_resolution=(2, 2))
    table = Table(
        ["clock", "total power", "max steady temp", f"holds {CEILING:.0f} K?"],
        title=f"Floorplan {plan.name}: steady-state operating points "
        f"(uniform {WORKLOAD_UTILIZATION * 100:.0f}% activity)",
    )
    for f in frequencies:
        point = analyzer.steady_state(f, WORKLOAD_UTILIZATION)
        table.add_row(
            f"{f / MHZ:.0f} MHz",
            f"{point.total_power_w:.2f} W",
            f"{point.max_temperature_k:.1f} K",
            "yes" if point.holds(CEILING) else "NO",
        )
    print(table)
    return analyzer


def main():
    # The ARM7 floorplan barely warms: tens of mW cannot heat a package
    # with 20 K/W to any interesting temperature.
    sweep_floorplan(floorplan_4xarm7(), [50 * MHZ, 100 * MHZ, 200 * MHZ])
    print()
    analyzer = sweep_floorplan(
        floorplan_4xarm11(),
        [100 * MHZ, 200 * MHZ, 250 * MHZ, 300 * MHZ, 400 * MHZ, 500 * MHZ],
    )

    print()
    f_min = analyzer.minimum_holding_frequency(
        CEILING, WORKLOAD_UTILIZATION, low_hz=50 * MHZ, high_hz=500 * MHZ,
        tol_hz=2 * MHZ,
    )
    print(f"Slowest clock that holds {CEILING:.0f} K on the ARM11 floorplan: "
          f"{f_min / MHZ:.0f} MHz")
    for low in (100 * MHZ, 250 * MHZ):
        verdict = analyzer.dfs_low_point_holds(low, CEILING, WORKLOAD_UTILIZATION)
        outcome = (
            "yes"
            if verdict
            else "NO — the die settles above the threshold, the policy "
            "latches low and still overshoots"
        )
        print(f"DFS low point {low / MHZ:.0f} MHz holds the ceiling: {outcome}")
    print("\nThis is why the paper's policy drops all the way to 100 MHz: "
          "the low point must sit below the ceiling's holding frequency, "
          "with margin for sensor hysteresis.")


if __name__ == "__main__":
    main()
