"""Exactness pins for the exact emulation engines.

The event-driven interpreter is the exact reference every other backend
is calibrated and checked against, so any change to its fast paths
(predecoded programs, inlined cache hits, deferred counters, the
precomputed NoC path) must not move one simulated bit.  These constants
were captured from the interpreter before those fast paths existed;
each case pins the SHA-256 of the thermal trace, the platform end
cycle, the instruction total and the SHA-256 of ``platform.stats()``.
A profiled design executes nothing and builds no platform, so its pin
holds ``"platform": None`` in place of the end cycle and stats.

To re-capture after a deliberate timing-model change, run this module
as a script (``PYTHONPATH=src python tests/emulation/test_exactness_pin.py``)
and paste its output over ``PINS``.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.framework import FrameworkConfig
from repro.emulation.cycle_accurate import CycleAccurateEngine
from repro.mpsoc.cache import WRITE_BACK
from repro.mpsoc.platform import build_platform
from repro.scenario.presets import PRESETS
from repro.scenario.spec import WorkloadSpec
from repro.workloads.matrix import matrix_programs


def _string_keyed(value):
    """Stats with tuple/int keys (NoC links, bus masters) made JSON-safe."""
    if not isinstance(value, dict):
        return value
    return {
        "->".join(map(str, k)) if isinstance(k, tuple) else str(k):
            _string_keyed(v)
        for k, v in value.items()
    }


def _stats_sha(platform):
    blob = json.dumps(_string_keyed(platform.stats()), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _scenario(case):
    name, variant = case
    scenario = PRESETS.get(name)()
    if variant in ("short_windows", "write_back"):
        # 20 us windows: many window boundaries mid-run, so batches are
        # cut by the horizon and halted cores idle to each boundary.
        scenario.config = FrameworkConfig(sampling_period_s=2e-5)
    if variant == "write_back":
        scenario.platform.dcache = replace(
            scenario.platform.dcache, write_policy=WRITE_BACK
        )
    if variant == "matrix":
        # The preset's own workload is a profile (no instruction runs):
        # MATRIX on its cache-less ppc405 + microblaze bus platform pins
        # the interpreter on two CPI tables and two core clocks.
        scenario.workload = WorkloadSpec("matrix", {"n": 8, "iterations": 1})
    return scenario


def measure(case):
    framework, report = _scenario(case).run()
    trace = json.dumps(framework.trace.to_dict(), sort_keys=True)
    measured = {
        "trace_sha": hashlib.sha256(trace.encode()).hexdigest(),
        "instructions": report.instructions,
        "windows": report.windows,
    }
    if framework.platform is None:
        assert "end_cycle" not in report.extras
        measured["platform"] = None
    else:
        measured["end_cycle"] = report.extras["end_cycle"]
        measured["stats_sha"] = _stats_sha(framework.platform)
    return measured


def measure_cycle_accurate():
    platform = build_platform(PRESETS.get("matrix_quickstart")().platform)
    for index, program in enumerate(matrix_programs(4, n=4, iterations=1)):
        platform.load_program(index, program)
    end_cycle = CycleAccurateEngine(platform).run()
    return {
        "end_cycle": end_cycle,
        "instructions": sum(c.instructions for c in platform.cores),
        "stats_sha": _stats_sha(platform),
    }


CASES = [
    ("matrix_quickstart", "preset"),
    ("dithering_noc", "preset"),
    ("matrix_quickstart", "short_windows"),
    ("dithering_noc", "short_windows"),
    ("matrix_quickstart", "write_back"),
    ("hetero_biglittle", "preset"),
    ("hetero_biglittle", "matrix"),
    ("dithering_noc", "write_back"),
]

PINS = {
    ("matrix_quickstart", "preset"): {
        "trace_sha": "d3b307309fbbefd227e5ed8aec27b44c72675b46bbaa611dd82ebcf077333267",
        "end_cycle": 21545, "instructions": 32431, "windows": 1,
        "stats_sha": "7c48145f821a23f83d57bb75e4bb4c89d338fe20d8416415fc99be1cbafa07c6",
    },
    ("dithering_noc", "preset"): {
        "trace_sha": "15875da1e1e9dcd06cc152ba4b6aa4fb3a79881fe1f17cf06e793ee24c16a34a",
        "end_cycle": 35693, "instructions": 27020, "windows": 1,
        "stats_sha": "6f0c0113cbbb964c3d0f77bab4eaa983f66c03aa8ec7c88a37a71748711cb68f",
    },
    ("matrix_quickstart", "short_windows"): {
        "trace_sha": "d19d6e3760b5b6cbf1fde2b9b1ee4231e0063185913337ffc5f956e1854f6157",
        "end_cycle": 21545, "instructions": 32431, "windows": 11,
        "stats_sha": "f65666d2473083a965179ce596e7cbff3569ec44efdd1edef6d0ebd669f04c1a",
    },
    ("dithering_noc", "short_windows"): {
        "trace_sha": "bbee63cb016583e5de6f45851d377d608ced5e234bcee7fb0b043e08ac7f052a",
        "end_cycle": 35693, "instructions": 27020, "windows": 18,
        "stats_sha": "8c677e827004a0e28aee8f4178b5c4d5ad859a283912de2a9041ff6e4c6228ef",
    },
    ("matrix_quickstart", "write_back"): {
        "trace_sha": "0a366b45674aaa2b6f5c88ca84ee896db5441e41cd095a21a28b829d3c56437c",
        "end_cycle": 21481, "instructions": 32431, "windows": 11,
        "stats_sha": "1d67432bbdced21975b74a86aeb89d1c776980b3237287be85df3ef93314de61",
    },
    ("hetero_biglittle", "preset"): {
        "trace_sha": "558663f3b7d616843aea97077129d1229d6ca241408b9f3c123608174edf2821",
        "instructions": 3000000.0, "windows": 40, "platform": None,
    },
    ("hetero_biglittle", "matrix"): {
        "trace_sha": "6cbf31d0089e508bbed388c803520889791221ab2828c5a394fcbeca50fd9b81",
        "end_cycle": 21229, "instructions": 32431, "windows": 1,
        "stats_sha": "acca3581728e956a1641c8813eb0555411344fbbc9d4f059e246e823541fdf49",
    },
    # DITHERING keeps all its data in shared (uncached) memory, so the
    # write-back D-cache leaves it as the short_windows run: the pin
    # guards the write-back fast path against touching shared traffic.
    ("dithering_noc", "write_back"): {
        "trace_sha": "bbee63cb016583e5de6f45851d377d608ced5e234bcee7fb0b043e08ac7f052a",
        "end_cycle": 35693, "instructions": 27020, "windows": 18,
        "stats_sha": "8c677e827004a0e28aee8f4178b5c4d5ad859a283912de2a9041ff6e4c6228ef",
    },
}

CYCLE_ACCURATE_PIN = {
    "end_cycle": 3120, "instructions": 4607,
    "stats_sha": "ce98b9dd348d193530ebc86ef456925da4252dc05c9fb2f3ddc050ac1fd1b5f8",
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_event_driven_run_matches_pinned_parent(case):
    assert measure(case) == PINS[case]


def test_cycle_accurate_run_matches_pinned_parent():
    assert measure_cycle_accurate() == CYCLE_ACCURATE_PIN


if __name__ == "__main__":
    print("PINS = {")
    for case in CASES:
        print(f"    {case!r}: {measure(case)!r},")
    print("}")
    print(f"CYCLE_ACCURATE_PIN = {measure_cycle_accurate()!r}")
