"""A die knob the grid mode never reads splits no digest, cache or group.

Component grids ignore ``die_resolution`` and uniform grids ignore
``refine_critical``.  A closed-loop scenario's store digest keeps its
grid knobs, so without normalization setting the ignored one would
miss every recording, build a second identical network and co-step in
a group of its own.
"""

import pytest

from repro.scenario.runner import Runner, _co_step_key
from repro.trace.store import scenario_trace_digest
from tests.trace.conftest import short_scenario

#: ``(grid mode, the knob it ignores, a non-default value, the knob it
#: reads, a non-default value)``.
CASES = [
    ("component", "die_resolution", (4, 4), "refine_critical", 2),
    ("uniform", "refine_critical", 3, "die_resolution", (4, 4)),
]


def closed_loop(mode, name, **knobs):
    """A short DFS run (its digest keeps the grid knobs) on ``mode``."""
    scenario = short_scenario("matrix_tm_dfs", seconds=0.2, name=name)
    scenario.config.grid_mode = mode
    for knob, value in knobs.items():
        setattr(scenario.config, knob, value)
    return scenario


@pytest.mark.parametrize(
    "mode, ignored, value, read, read_value", CASES, ids=["component", "uniform"]
)
def test_ignored_die_knob_keeps_digest_structure_and_group(
    mode, ignored, value, read, read_value
):
    base = closed_loop(mode, "base")
    twin = closed_loop(mode, "twin", **{ignored: value})
    other = closed_loop(mode, "other", **{read: read_value})
    assert scenario_trace_digest(twin) == scenario_trace_digest(base)
    assert scenario_trace_digest(other) != scenario_trace_digest(base)

    scenarios = (base, twin, other)
    frameworks = [s.build() for s in scenarios]
    keys = [f.network.structure_key for f in frameworks]
    assert keys[1] == keys[0] and keys[2] != keys[0]
    groups = [_co_step_key(s, f.floorplan) for s, f in zip(scenarios, frameworks)]
    assert [group[0] for group in groups] == keys  # known before the build
    assert groups[1] == groups[0] and groups[2] != groups[0]

    # End to end: one co-step group shares one wall-clock float, and the
    # twin replays its base's recording instead of emulating again.
    results = Runner(trace_store=True).run_batched([base, twin])
    assert all(r.ok for r in results)
    assert [r.replayed for r in results] == [False, True]
    assert results[1].report.peak_temperature_k == pytest.approx(
        results[0].report.peak_temperature_k
    )
    grouped = Runner().run_batched([base, twin])
    assert grouped[0].wall_seconds == grouped[1].wall_seconds
