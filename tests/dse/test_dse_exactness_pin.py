"""Exactness pins for the DSE sweep.

``run_dse`` is mostly orchestration around short co-stepped runs:
scenario parsing, digesting, floorplan validation, sniffer payloads,
replays and the Pareto pruning.  None of that may move one result.
These constants were captured before that orchestration was reworked;
each case runs a reduced 72-point space (big 1/2/4 x little 0/3/5 x two
nodes x two clocks x both grids) in a seeded order and pins

* the SHA-256 of the sorted front rows, computed as perfbench does;
* a SHA-256 over every design's ``(name, peak_temperature_k,
  avg_power_w, throughput_ips, replayed, windows)`` in input order;
* the ``policy_refinement`` dict, minus its host wall times.

The order is a block shuffle like perfbench's ``dse_sweep``: each
design's grid twins stay side by side, coarse first, so the coarse twin
emulates and the fine one replays whatever the seed.

To re-capture after a deliberate model change, run this module as a
script (``PYTHONPATH=src python tests/dse/test_dse_exactness_pin.py``)
and paste its output over ``PINS``.
"""

import hashlib
import json
import random

import pytest

from repro.dse import driver, space
from repro.scenario.runner import Runner
from repro.util.units import MHZ

SPACE = dict(
    big_counts=(1, 2, 4),
    little_counts=(0, 3, 5),
    tech_nodes=("130nm", "65nm"),
    big_hz_steps=(150 * MHZ, 400 * MHZ),
    grids=space.DEFAULT_GRIDS,
)


def _points(seed):
    points = space.generate_points(**SPACE)
    width = len(space.DEFAULT_GRIDS)
    blocks = [points[i:i + width] for i in range(0, len(points), width)]
    random.Random(seed).shuffle(blocks)
    return [point for block in blocks for point in block]


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _without_wall_seconds(value):
    if isinstance(value, dict):
        return {
            key: _without_wall_seconds(item) for key, item in value.items()
            if key != "wall_seconds"
        }
    if isinstance(value, list):
        return [_without_wall_seconds(item) for item in value]
    return value


class _KeepResults(Runner):
    """The CLI's runner, keeping the per-design results."""

    def run_batched(self, scenarios, library=None):
        self.results = super().run_batched(scenarios, library)
        return self.results


def measure(seed):
    points = _points(seed)
    runner = _KeepResults(capture_trace=True, trace_store=True)
    report = driver.run_dse(points, runner=runner)
    front = sorted(
        (row["design"], row["peak_temperature_k"], row["avg_power_w"],
         row["throughput_ips"])
        for row in report["front"]
    )
    designs = []
    for point, result in zip(points, runner.results):
        row = driver.metric_row(point, result)
        designs.append((row["design"], row["peak_temperature_k"],
                        row["avg_power_w"], row["throughput_ips"],
                        row["replayed"], row["windows"]))
    return {
        "front_sha": _sha(front),
        "designs_sha": _sha(designs),
        "front_size": report["front_size"],
        "replayed": report["replayed"],
        "refinement_sha": _sha(_without_wall_seconds(
            report["policy_refinement"]
        )),
    }


SEEDS = [1, 2]

PINS = {
    1: {
        "front_sha": "f6d0a1643f464c081edcf25b561a7feaff10affabc630d90b69b9cb0a6ee5b69",
        "designs_sha": "1944cae74589cfc0a94c5dedf0a45b59e721deb652c3861a04131f5e6472ef0a",
        "front_size": 12, "replayed": 36,
        "refinement_sha": "f705333425fd1c86af8c6a7bde6d099dfa42a422add05ec9d4b466dcd20431c2",
    },
    2: {
        "front_sha": "f6d0a1643f464c081edcf25b561a7feaff10affabc630d90b69b9cb0a6ee5b69",
        "designs_sha": "d9dc528e008a43abb09792963a70bb1d80ba5fcdf210e594d9e812e5c90c9a7a",
        "front_size": 12, "replayed": 36,
        "refinement_sha": "f705333425fd1c86af8c6a7bde6d099dfa42a422add05ec9d4b466dcd20431c2",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_dse_sweep_matches_pinned_parent(seed):
    assert measure(seed) == PINS[seed]


if __name__ == "__main__":
    print("PINS = {")
    for seed in SEEDS:
        print(f"    {seed!r}: {measure(seed)!r},")
    print("}")
