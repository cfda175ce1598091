"""Named preset scenarios runnable from ``python -m repro``.

Each preset is a zero-argument factory returning a :class:`Scenario`;
``PRESETS.get(name)()`` (or the CLI) materializes it.  Presets are sized
to finish in seconds on a laptop — they are demonstrations and smoke
tests, not the paper's full 100 K-iteration stress runs.

:func:`load_scenarios` is the one place a command line turns a spec
argument (a JSON scenario, list or suite file, or a preset name) into
scenarios.
"""

import json
import pathlib

from repro.core.framework import FrameworkConfig
from repro.core.workload_model import ActivityProfile
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.noc import generate_custom
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.scenario.sweep import ExperimentSuite
from repro.util.registry import Registry
from repro.util.units import KB, MHZ

PRESETS = Registry("preset scenario")


def _four_core_platform(name, spec="microblaze", frequency_hz=None,
                        interconnect="bus", noc=None):
    return MPSoCConfig(
        name=name,
        cores=[
            CoreConfig(f"cpu{i}", spec=spec, frequency_hz=frequency_hz)
            for i in range(4)
        ],
        icache=CacheConfig(name="i", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=4 * KB, line_size=16, assoc=2),
        shared_mem_size=64 * KB,
        interconnect=interconnect,
        noc=noc,
    )


def _stress_profile():
    """A MATRIX-TM-class synthetic stress signature (near-saturated cores)."""
    utilization = {}
    for i in range(4):
        utilization[("core", i)] = 0.97
        utilization[("icache", i)] = 0.5
        utilization[("dcache", i)] = 0.35
        utilization[("private_mem", i)] = 0.2
    utilization[("shared_mem", None)] = 0.25
    return ActivityProfile(
        name="stress",
        cycles_per_iteration=1000.0,
        utilization=utilization,
        instructions_per_iteration=850.0,
    )


@PRESETS.register("matrix_quickstart")
def matrix_quickstart():
    """Four Microblaze-class cores running MATRIX cycle-accurately."""
    return Scenario(
        name="matrix_quickstart",
        description="4-core MATRIX kernel on the custom bus, no management",
        platform=_four_core_platform("quickstart"),
        floorplan="4xarm7",
        workload=WorkloadSpec("matrix", {"n": 8, "iterations": 1}),
    )


@PRESETS.register("dithering_noc")
def dithering_noc():
    """DITHERING on the paper's 2-switch application-specific NoC."""
    return Scenario(
        name="dithering_noc",
        description="4-core Floyd-Steinberg dithering over a 2-switch NoC",
        platform=_four_core_platform(
            "dither-noc",
            interconnect="noc",
            noc=generate_custom("noc2", 2, ring=False),
        ),
        floorplan="4xarm7",
        workload=WorkloadSpec(
            "dithering", {"width": 16, "height": 16, "num_images": 2}
        ),
    )


@PRESETS.register("matrix_tm_dfs")
def matrix_tm_dfs():
    """A scaled-down Figure 6: stress profile under dual-threshold DFS."""
    return Scenario(
        name="matrix_tm_dfs",
        description="MATRIX-TM-class stress under the paper's 350/340 K DFS",
        workload=WorkloadSpec(
            "profiled",
            {"profile": _stress_profile().to_dict(), "total_iterations": 2_000_000},
        ),
        floorplan="4xarm11",
        policy=PolicySpec(
            "dual_threshold", {"high_hz": 500 * MHZ, "low_hz": 100 * MHZ}
        ),
        config=FrameworkConfig(virtual_hz=500 * MHZ, spreader_resolution=(2, 2)),
        max_emulated_seconds=60.0,
    )


@PRESETS.register("matrix_tm_unmanaged")
def matrix_tm_unmanaged():
    """The unmanaged baseline of the same scaled-down Figure 6 run."""
    scenario = matrix_tm_dfs()
    scenario.name = "matrix_tm_unmanaged"
    scenario.description = "MATRIX-TM-class stress with no thermal management"
    scenario.policy = PolicySpec("none")
    return scenario


@PRESETS.register("hetero_biglittle")
def hetero_biglittle():
    """A heterogeneous big.LITTLE-style platform on the 65 nm node: two
    PowerPC405-class big cores at 400 MHz beside two Microblaze-class
    littles at 100 MHz, on the parameterized ``hetero`` floorplan."""
    from repro.dse.space import DesignPoint, point_scenario

    scenario = point_scenario(
        DesignPoint(big=2, little=2, tech_node="65nm", big_hz=400 * MHZ),
        max_windows=40,
    )
    scenario.name = "hetero_biglittle"
    scenario.description = (
        "2 big ppc405 @ 400 MHz + 2 little microblaze @ 100 MHz, 65 nm "
        "V(f) power scaling, parameterized hetero floorplan"
    )
    return scenario


@PRESETS.register("matrix_tm_cached")
def matrix_tm_cached():
    """The DFS run on the cached-LU solver backend (factorize once,
    backsolve every window, refactorize on 1 K silicon drift) — same
    physics within the backend's bounded linearization error, several
    times the thermal-solve throughput."""
    scenario = matrix_tm_dfs()
    scenario.name = "matrix_tm_cached"
    scenario.description = (
        "MATRIX-TM-class stress under DFS, cached-LU thermal backend"
    )
    scenario.config.solver_backend = "cached_lu"
    return scenario


def load_scenarios(spec, single=False):
    """The scenarios a CLI spec names: a JSON file holding one scenario,
    a list of them or a suite (``{"name": ..., "scenarios": [...]}``),
    or a preset name.  With ``single``, a list or suite file is an
    error, whatever its length."""
    path = pathlib.Path(spec)
    if path.is_file():
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "scenarios" in data:
            scenarios = ExperimentSuite.from_dict(data).scenarios
        elif isinstance(data, list):
            scenarios = [Scenario.from_dict(d) for d in data]
        else:
            return [Scenario.from_dict(data)]
        if single:
            raise ValueError(
                f"{spec!r} holds a suite; this command takes one scenario, "
                f"not a suite (run each member on its own, or the suite "
                f"through a Runner with trace_store=...)"
            )
        return scenarios
    if spec in PRESETS:
        return [PRESETS.get(spec)()]
    raise ValueError(
        f"{spec!r} is neither a readable JSON file nor a preset "
        f"(presets: {', '.join(PRESETS.names())})"
    )
