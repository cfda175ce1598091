"""Exactness pins for the closed-loop thermal window.

The window carries activity -> power -> injection -> solve -> readout ->
sensors, and any rework of that path (matrix assembly, vectorized power,
sensor hysteresis) must not move one float.  These constants were
captured before the window became array-native; each case pins the
SHA-256 of the thermal trace, the window count and the solver's
``factorizations`` / ``solves`` counters.

Cases: ``matrix_tm_cached`` (cached LU, DFS, profiled workload),
``matrix_tm_dfs`` (the exact ``sparse_be`` reference), ``hetero_biglittle``
(per-core clocks and the 65 nm V(f)^2 factor), a three-member co-stepped
:meth:`~repro.scenario.runner.Runner.run_batched` group, and a record ->
replay of ``matrix_tm_cached``.

To re-capture after a deliberate model change, run this module as a
script (``PYTHONPATH=src python tests/thermal/test_window_exactness_pin.py``)
and paste its output over ``PINS``.
"""

import hashlib
import json

import pytest

from repro.core import framework as framework_module
from repro.core.workload_model import ActivityProfile
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.thermal.backends import CachedLU
from repro.trace.capture import record
from repro.trace.replay import replay


def _trace_sha(trace):
    blob = json.dumps(trace.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _solo(name, max_windows):
    scenario = PRESETS.get(name)()
    scenario.max_windows = max_windows
    framework, report = scenario.run()
    stats = framework.solver.backend.stats()
    return {
        "trace_sha": _trace_sha(framework.trace),
        "windows": report.windows,
        "factorizations": stats["factorizations"],
        "solves": stats["solves"],
    }


def _scaled_tm_dfs(scale):
    """``matrix_tm_dfs`` with every utilization scaled by ``scale``."""
    scenario = PRESETS.get("matrix_tm_dfs")()
    scenario.name = f"tm_dfs_x{scale}"
    scenario.max_windows = 400  # long enough for DFS transitions
    params = scenario.workload.params
    profile = ActivityProfile.from_dict(params["profile"])
    profile.utilization = {
        source: value * scale for source, value in profile.utilization.items()
    }
    params["profile"] = profile.to_dict()
    return scenario


def _batched(monkeypatch):
    """Three structure-sharing scenarios co-stepped by ``run_batched``."""
    shared = []

    class Counting(CachedLU):
        def bind(self, network):
            shared.append(self)
            return super().bind(network)

    monkeypatch.setattr(framework_module, "CachedLU", Counting)
    results = Runner(capture_trace=True).run_batched(
        [_scaled_tm_dfs(scale) for scale in (0.9, 1.0, 1.05)]
    )
    assert len(shared) == 1, "the three members must form one group"
    return {
        "trace_sha": [_trace_sha(result.trace) for result in results],
        "windows": [result.report.windows for result in results],
        "factorizations": shared[0].factorizations,
        "solves": shared[0].solves,
    }


def _replayed():
    scenario = PRESETS.get("matrix_tm_cached")()
    framework, _, archive = record(scenario)
    player, report = replay(archive)
    stats = player.solver.backend.stats()
    return {
        "live_trace_sha": _trace_sha(framework.trace),
        "trace_sha": _trace_sha(player.trace),
        "windows": report.windows,
        "factorizations": stats["factorizations"],
        "solves": stats["solves"],
    }


def measure(case, monkeypatch=None):
    if case == "matrix_tm_cached":
        return _solo("matrix_tm_cached", 1000)
    if case == "matrix_tm_dfs":
        return _solo("matrix_tm_dfs", 100)
    if case == "hetero_biglittle":
        return _solo("hetero_biglittle", 40)
    if case == "run_batched":
        return _batched(monkeypatch)
    if case == "replay":
        return _replayed()
    raise KeyError(case)


CASES = [
    "matrix_tm_cached",
    "matrix_tm_dfs",
    "hetero_biglittle",
    "run_batched",
    "replay",
]

PINS = {
    "matrix_tm_cached": {
        "trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "windows": 840,
        "factorizations": 95,
        "solves": 840,
    },
    "matrix_tm_dfs": {
        "trace_sha": "f972471d589bf552dc41ac0a8e74eb3638dab84cf8d4d45444ba54f024946b2b",
        "windows": 100,
        "factorizations": 100,
        "solves": 100,
    },
    "hetero_biglittle": {
        "trace_sha": "558663f3b7d616843aea97077129d1229d6ca241408b9f3c123608174edf2821",
        "windows": 40,
        "factorizations": 40,
        "solves": 40,
    },
    "run_batched": {
        "trace_sha": [
            "e6ba85bda955d09540f4ca268f399c4345dbb624e648020b811073bb04ff7cef",
            "f00068b3e37d4c96bb92c5c17af2d912a0011e2c19d1ef5426df33fb5f589998",
            "c47980a7cea3d42eecfdc2c7f1a2bfeee490bb66d001bbe0aa5bfdee76029b86",
        ],
        "windows": [400, 400, 400],
        "factorizations": 57,
        "solves": 1200,
    },
    "replay": {
        "live_trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "trace_sha": "325d8f5ffec1d0b5e56509d4c189ea1687040d15300f17726af5f13d1f8a46ac",
        "windows": 840,
        "factorizations": 95,
        "solves": 840,
    },
}


@pytest.mark.parametrize("case", CASES)
def test_window_matches_pinned_parent(case, monkeypatch):
    assert measure(case, monkeypatch) == PINS[case]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print("PINS = {")
        for case in CASES:
            print(f"    {case!r}: {measure(case, patch)!r},")
        print("}")
