#!/usr/bin/env python3
"""Architecture exploration: bus vs NoC on the DITHERING driver.

The paper positions the framework as an architecture-exploration
vehicle: swap interconnects, caches or arbitration policies and get
cycle-accurate statistics in minutes.  This example declares the sweep
as data — one base :class:`Scenario` plus a list of labelled platform
variants — expands it with :func:`sweep` and executes the batch through
a two-worker :class:`Runner`, then prints the performance/traffic
comparison the statistics fabric extracts.

Run:  python examples/design_space_exploration.py [--size 32] [--workers 2]
"""

import argparse

from repro.mpsoc.bus import BusConfig
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.noc import generate_custom, generate_mesh
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario, WorkloadSpec
from repro.scenario.sweep import Variant, sweep
from repro.util.records import Table
from repro.util.units import KB


def variant_platform(name, interconnect="bus", bus_kwargs=None, noc=None,
                     dcache_assoc=1):
    return MPSoCConfig(
        name=name,
        cores=[CoreConfig(f"cpu{i}") for i in range(4)],
        icache=CacheConfig(name="i", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=4 * KB, line_size=16,
                           assoc=dcache_assoc),
        shared_mem_size=256 * KB,
        interconnect=interconnect,
        bus=BusConfig(name=f"{name}.bus", **(bus_kwargs or {}))
        if interconnect == "bus"
        else None,
        noc=noc,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32,
                        help="image edge length (pixels)")
    parser.add_argument("--workers", type=int, default=2,
                        help="parallel scenario workers")
    args = parser.parse_args()
    width = height = args.size

    base = Scenario(
        name="dithering-dse",
        platform=variant_platform("base"),
        floorplan="4xarm7",
        workload=WorkloadSpec(
            "dithering", {"width": width, "height": height, "num_images": 2}
        ),
    )
    platforms = [
        Variant("OPB bus",
                variant_platform("opb", bus_kwargs={"kind": "opb"}).to_dict()),
        Variant("PLB bus",
                variant_platform("plb", bus_kwargs={"kind": "plb"}).to_dict()),
        Variant(
            "custom bus (round-robin)",
            variant_platform(
                "rr", bus_kwargs={"kind": "custom", "arbitration": "round-robin"}
            ).to_dict(),
        ),
        Variant(
            "NoC 2 switches (paper's dithering NoC)",
            variant_platform(
                "noc2", interconnect="noc",
                noc=generate_custom("noc2", 2, ring=False),
            ).to_dict(),
        ),
        Variant(
            "NoC 2x2 mesh",
            variant_platform(
                "mesh", interconnect="noc", noc=generate_mesh("m", 2, 2)
            ).to_dict(),
        ),
        Variant(
            "custom bus + 2-way D-cache",
            variant_platform("wb", dcache_assoc=2).to_dict(),
        ),
    ]
    scenarios = sweep(base, {"platform": platforms})
    results = Runner(workers=args.workers).run(scenarios)

    table = Table(
        ["variant", "cycles", "vs best", "interconnect traffic", "wait cycles",
         "wall s"],
        title=f"DITHERING (2x {width}x{height} images, 4 cores)",
    )
    good = [r for r in results if r.ok]
    for failed in (r for r in results if not r.ok):
        print(failed.summary())
    if not good:
        print("every variant failed")
        return
    best = min(r.report.extras["end_cycle"] for r in good)
    for result, variant in zip(results, platforms):
        if not result.ok:
            continue
        inter = result.report.extras["interconnect"]
        cycles = result.report.extras["end_cycle"]
        table.add_row(
            variant.label,
            cycles,
            f"{cycles / best:.2f}x",
            inter.get("words", inter.get("flits", 0)),
            inter.get("wait_cycles", 0),
            f"{result.wall_seconds:.2f}",
        )
    print(table)
    print(
        "\n(cycle counts from the emulated platform; 'wait cycles' is the "
        "arbitration wait the bus sniffers count — the NoC rows report "
        "flits instead of words)"
    )


if __name__ == "__main__":
    main()
