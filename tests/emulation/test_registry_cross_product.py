"""Registry cross-product property test.

Every registered workload x emulation backend x solver backend runs one
short scenario on a shared two-core platform; every combination must

* complete cleanly with the same completion semantics as the
  ``event_driven`` reference for its workload,
* keep per-window total power within the emulation backend's own
  declared ``power_tolerance_pct`` of that reference, and
* (exact backends) reproduce the run bit-for-bit when run twice.

One heterogeneous (ppc405 + microblaze) platform rides along through
every emulation backend.  New registry entries are covered here
automatically — a workload or backend that cannot survive the cross
product fails at registration time, not in someone's sweep.
"""

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig
from repro.emulation.backends import EMULATION_BACKENDS, make_emulation_backend
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.scenario.registry import WORKLOADS
from repro.scenario.spec import Scenario, WorkloadSpec
from repro.thermal.backends import SOLVER_BACKENDS
from repro.trace.capture import PowerTraceCapture
from repro.util.units import KB, MHZ

#: Tiny parameterizations — the point is coverage, not load.
WORKLOAD_PARAMS = {
    "matrix": {"n": 4, "iterations": 1},
    "dithering": {"width": 8, "height": 8, "num_images": 1},
    "shared_traffic": {"num_words": 256, "iterations": 2},
    "compute_burst": {"busy_loops": 200, "idle_loops": 50, "iterations": 2},
    "profiled": {
        "profile": {
            "name": "xprod",
            "cycles_per_iteration": 200.0,
            "utilization": [
                [["core", 0], 0.9], [["core", 1], 0.5],
                [["icache", 0], 0.4], [["icache", 1], 0.4],
                [["shared_mem", None], 0.2], [["bus", None], 0.3],
            ],
            "instructions_per_iteration": 150.0,
        },
        "total_iterations": 60,
    },
}

WORKLOAD_NAMES = WORKLOADS.names()
EMU_NAMES = EMULATION_BACKENDS.names()
SOLVER_NAMES = SOLVER_BACKENDS.names()
SAMPLING_S = 1e-5  # 1000 cycles per window at the 100 MHz default clock


def two_core_platform():
    from repro.mpsoc.cache import CacheConfig

    return MPSoCConfig(
        name="xprod2",
        cores=[CoreConfig(f"cpu{i}", spec="microblaze") for i in range(2)],
        icache=CacheConfig(name="i", size=4 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=4 * KB, line_size=16),
        private_mem_size=4 * KB,
        shared_mem_size=16 * KB,
    )


def cross_scenario(workload, emu, solver):
    return Scenario(
        name=f"xprod_{workload}_{emu}_{solver}",
        platform=two_core_platform(),
        floorplan={"name": "hetero", "params": {"big": 0, "little": 2}},
        workload=WorkloadSpec(workload, dict(WORKLOAD_PARAMS[workload])),
        config=FrameworkConfig(
            sampling_period_s=SAMPLING_S,
            solver_backend=solver,
            emulation_backend=emu,
            spreader_resolution=(2, 2),
        ),
        max_windows=60,
    )


def execute(scenario):
    framework = scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    report = framework.run(max_windows=scenario.max_windows)
    archive = capture.to_archive(framework, scenario=scenario, report=report)
    return report, archive


_RUNS = {}


def run_combo(workload, emu, solver):
    key = (workload, emu, solver)
    if key not in _RUNS:
        _RUNS[key] = execute(cross_scenario(workload, emu, solver))
    return _RUNS[key]


def reference(workload):
    return run_combo(workload, "event_driven", "sparse_be")


# -- the full cross product -------------------------------------------------


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("emu", EMU_NAMES)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_cross_product_within_declared_tolerance(workload, emu, solver):
    ref_report, ref_archive = reference(workload)
    report, archive = run_combo(workload, emu, solver)
    backend = make_emulation_backend(emu)

    # Completion semantics match the reference.
    assert report.workload_done == ref_report.workload_done
    assert report.windows > 0
    assert report.instructions == pytest.approx(
        ref_report.instructions, rel=5e-3
    )

    # Per-window total power within the backend's declared band.
    ref_power = ref_archive.power_w.sum(axis=1)
    power = archive.power_w.sum(axis=1)
    overlap = min(len(ref_power), len(power))
    assert overlap >= 3
    deviation = np.abs(power[:overlap] - ref_power[:overlap]) / np.maximum(
        ref_power[:overlap], 1e-12
    )
    worst_pct = float(np.max(deviation)) * 100.0
    if emu == "event_driven":
        # The solver backend is thermal-side only: the emulated power
        # stream must be bit-for-bit solver-independent.
        assert np.array_equal(archive.power_w, ref_archive.power_w)
    else:
        assert worst_pct <= backend.power_tolerance_pct, (
            f"{workload} on {emu}/{solver} deviates {worst_pct:.2f}% from "
            f"event_driven, declared {backend.power_tolerance_pct:g}%"
        )

    # The run produced sane thermal output on every solver backend.
    assert report.peak_temperature_k > 273.0


@pytest.mark.parametrize(
    "emu", [n for n in EMU_NAMES if make_emulation_backend(n).exact]
)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_backends_run_twice_bit_for_bit(workload, emu):
    report, archive = run_combo(workload, emu, "sparse_be")
    again_report, again_archive = execute(
        cross_scenario(workload, emu, "sparse_be")
    )
    assert archive.metadata["trace_digest"] == again_archive.metadata[
        "trace_digest"
    ]
    assert np.array_equal(archive.power_w, again_archive.power_w)
    assert report.instructions == again_report.instructions


# -- the heterogeneous rider ------------------------------------------------


def hetero_scenario(emu):
    platform = MPSoCConfig(
        name="xprod_hetero",
        cores=[
            CoreConfig("big0", spec="ppc405", frequency_hz=200 * MHZ),
            CoreConfig("lil0", spec="microblaze", frequency_hz=100 * MHZ),
        ],
        private_mem_size=4 * KB,
        shared_mem_size=16 * KB,
    )
    return Scenario(
        name=f"xprod_hetero_{emu}",
        platform=platform,
        floorplan={"name": "hetero", "params": {"big": 1, "little": 1}},
        workload=WorkloadSpec("compute_burst",
                              {"busy_loops": 200, "iterations": 2}),
        config=FrameworkConfig(
            sampling_period_s=SAMPLING_S,
            virtual_hz=200 * MHZ,
            emulation_backend=emu,
            spreader_resolution=(2, 2),
        ),
        max_windows=60,
    )


@pytest.fixture(scope="module")
def hetero_reference():
    return execute(hetero_scenario("event_driven"))


@pytest.mark.parametrize("emu", EMU_NAMES)
def test_heterogeneous_platform_crosses_every_backend(emu, hetero_reference):
    ref_report, ref_archive = hetero_reference
    report, archive = execute(hetero_scenario(emu))
    backend = make_emulation_backend(emu)
    assert report.workload_done == ref_report.workload_done
    ref_power = ref_archive.power_w.sum(axis=1)
    power = archive.power_w.sum(axis=1)
    overlap = min(len(ref_power), len(power))
    assert overlap >= 3
    deviation = np.abs(power[:overlap] - ref_power[:overlap]) / np.maximum(
        ref_power[:overlap], 1e-12
    )
    assert float(np.max(deviation)) * 100.0 <= max(
        backend.power_tolerance_pct, 1e-9
    )
