"""Design-space ablations around the paper's experiments, declared as
scenario variants and executed through the :class:`Runner`."""

from repro.core.framework import FrameworkConfig
from repro.core.workload_model import ActivityProfile
from repro.mpsoc.bus import ARB_FIXED_PRIORITY, ARB_ROUND_ROBIN, ARB_TDMA, BusConfig
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.noc import generate_custom, generate_mesh
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.scenario.sweep import Variant, sweep
from repro.util.units import KB, MHZ


# -- interconnect choice under the DITHERING driver -------------------------

def interconnect_platform(name, interconnect="bus", bus=None, noc=None):
    return MPSoCConfig(
        name=name,
        cores=[CoreConfig(f"cpu{i}") for i in range(4)],
        icache=CacheConfig(name="i", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=4 * KB, line_size=16),
        shared_mem_size=64 * KB,
        interconnect=interconnect,
        bus=bus,
        noc=noc,
    ).to_dict()


BUSES = {
    "OPB": BusConfig(name="b", kind="opb"),
    "PLB": BusConfig(name="b", kind="plb"),
    "custom fixed-priority": BusConfig(name="b", arbitration=ARB_FIXED_PRIORITY),
    "custom round-robin": BusConfig(name="b", arbitration=ARB_ROUND_ROBIN),
    "custom TDMA": BusConfig(name="b", arbitration=ARB_TDMA, tdma_slot_cycles=8),
}


def test_interconnect_ablation_orders_the_buses():
    """Every shipped interconnect dithers two 24x24 images on 4 cores
    (every pixel touch crosses the interconnect)."""
    base = Scenario(
        name="interconnect",
        platform=interconnect_platform("base"),
        floorplan="4xarm7",
        workload=WorkloadSpec(
            "dithering", {"width": 24, "height": 24, "num_images": 2}
        ),
    )
    platforms = [
        Variant(label, interconnect_platform(label, bus=bus))
        for label, bus in BUSES.items()
    ] + [
        Variant("NoC 2 switches", interconnect_platform(
            "n2", "noc", noc=generate_custom("n2", 2, ring=False, buffer_flits=3)
        )),
        Variant("NoC 2x2 mesh", interconnect_platform(
            "m", "noc", noc=generate_mesh("m", 2, 2, buffer_flits=3)
        )),
    ]
    batch = Runner(workers=2).run(sweep(base, {"platform": platforms}))
    assert all(r.ok for r in batch), [r.error for r in batch]
    cycles = {}
    stats = {}
    for variant, result in zip(platforms, batch):
        cycles[variant.label] = result.report.extras["end_cycle"]
        stats[variant.label] = result.report.extras["interconnect"]

    # OPB's 2-cycle arbitration is slower than PLB.
    assert cycles["OPB"] > cycles["PLB"]
    # TDMA pays slot-wait on this bursty workload.
    assert cycles["custom TDMA"] > cycles["custom round-robin"]
    # Same workload, same traffic: identical bus words on every bus.
    assert len({stats[label]["words"] for label in BUSES}) == 1


# -- thermal-management policy design space ---------------------------------

def hot_profile():
    utilization = {}
    for i in range(4):
        utilization[("core", i)] = 0.97
        utilization[("icache", i)] = 0.5
        utilization[("dcache", i)] = 0.35
        utilization[("private_mem", i)] = 0.2
    utilization[("shared_mem", None)] = 0.25
    return ActivityProfile(
        name="hot", cycles_per_iteration=1000.0, utilization=utilization,
        instructions_per_iteration=850.0,
    )


def policy_scenario(label, policy, upper=350.0, lower=340.0):
    """A MATRIX-TM-class stress workload on 4x ARM11 at 500 MHz."""
    return Scenario(
        name=label,
        workload=WorkloadSpec(
            "profiled",
            {"profile": hot_profile().to_dict(), "total_iterations": 12_000_000},
        ),
        floorplan="4xarm11",
        policy=PolicySpec.from_dict(policy),
        config=FrameworkConfig(
            virtual_hz=500 * MHZ,
            sensor_upper_kelvin=upper,
            sensor_lower_kelvin=lower,
            spreader_resolution=(2, 2),
        ),
        max_emulated_seconds=240.0,
    )


def dual(low_hz=100 * MHZ):
    return {"name": "dual_threshold",
            "params": {"high_hz": 500 * MHZ, "low_hz": low_hz}}


def test_dfs_threshold_ablation_peaks_and_completion_times():
    """Thresholds, low operating point and policy type around the paper's
    DFS policy, co-stepped through one multi-RHS thermal solve per
    window."""
    scenarios = [
        policy_scenario("none", {"name": "none"}),
        policy_scenario("DFS 360/350", dual(), 360.0, 350.0),
        policy_scenario("DFS 350/340 (paper)", dual()),
        policy_scenario("DFS 340/330", dual(), 340.0, 330.0),
        policy_scenario("DFS 350/340, low=250 MHz", dual(250 * MHZ)),
        policy_scenario(
            "stop-go 350/340",
            {"name": "stop_go", "params": {"run_hz": 500 * MHZ}},
        ),
        policy_scenario(
            "per-core DFS 350/340",
            {"name": "per_core",
             "params": {"core_components": {f"arm11_{i}": i for i in range(4)},
                        "high_hz": 500 * MHZ, "low_hz": 100 * MHZ}},
        ),
    ]
    results = Runner().run_batched(scenarios)
    assert all(r.ok for r in results), [r.error for r in results]
    runs = {r.name: r.report for r in results}
    paper = runs["DFS 350/340 (paper)"]

    # Unmanaged is hottest; the paper's policy and tighter ones respect
    # their ceilings, and lower ceilings cost more time.
    assert runs["none"].peak_temperature_k > 360.0
    assert paper.peak_temperature_k < 352.0
    assert runs["DFS 340/330"].peak_temperature_k < 342.0
    assert (
        runs["DFS 340/330"].emulated_seconds
        > paper.emulated_seconds
        > runs["none"].emulated_seconds
    )
    # A 250 MHz low point cannot hold the 350 K ceiling for this workload
    # (its steady state sits above the threshold), though it finishes
    # sooner.
    low250 = runs["DFS 350/340, low=250 MHz"]
    assert low250.peak_temperature_k > 352.0
    assert low250.emulated_seconds < paper.emulated_seconds
    # Per-core DFS holds the line too, and pays with run time.
    per_core = runs["per-core DFS 350/340"]
    assert per_core.peak_temperature_k < 353.0
    assert per_core.emulated_seconds > runs["none"].emulated_seconds
