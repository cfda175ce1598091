"""A steady window reuses its power and injection, byte for byte.

:class:`~repro.core.framework.WindowGroup` converts utilizations to
watts, and injects them, again only when a live member's utilization
bits or DFS level changed, or when the group has recorded (replay)
members.  The oracle is the same run with that reuse switched off: a
reference group forgets what it kept before every window, so it
recomputes power and injection each time.  Report, trace and the
captured ``power_w`` must be byte-identical to it, on DFS level
changes, per-core clocks under a V(f)^2 scale, co-stepped DSE groups
with replay members, and a workload whose vectors are fresh arrays
that repeat, flip ``0.0`` to ``-0.0`` and finally turn NaN.
"""

import json

import numpy as np
import pytest

from repro.core.framework import EmulationFramework, FrameworkConfig, WindowGroup
from repro.dse.space import default_points, point_scenario
from repro.power.models import PowerModel
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec
from repro.thermal.floorplan import floorplan_4xarm11
from repro.trace.capture import PowerTraceCapture, record
from repro.trace.store import TraceStore
from repro.util.units import MHZ


def recompute_every_window(monkeypatch):
    """Make every group forget its kept watts and injection before
    each window: the reference the reuse must match."""
    step = WindowGroup.step

    def forgetful_step(group):
        group._inputs = group._columns = None
        return step(group)

    monkeypatch.setattr(WindowGroup, "step", forgetful_step)


def power_calls(monkeypatch):
    """Count ``PowerModel.power`` calls; returns the call list."""
    calls = []
    power = PowerModel.power

    def counting(model, *args, **kwargs):
        calls.append(None)
        return power(model, *args, **kwargs)

    monkeypatch.setattr(PowerModel, "power", counting)
    return calls


def report_json(report):
    """The report as sorted JSON, without its wall-clock ``timing``."""
    data = report.to_dict()
    data["extras"].pop("timing")
    return json.dumps(data, sort_keys=True)


def facts(framework, report, archive):
    return (report_json(report),
            json.dumps(framework.trace.to_dict(), sort_keys=True),
            archive.power_w.tobytes())


def hetero_per_core():
    """hetero_biglittle with its big cores under per-core DFS, low
    enough thresholds that their clocks switch during the run."""
    scenario = PRESETS.get("hetero_biglittle")()
    scenario.policy = PolicySpec("per_core", {
        "core_components": {"arm11_0": 0, "arm11_1": 1},
        "high_hz": 400 * MHZ, "low_hz": 100 * MHZ,
    })
    scenario.config.sensor_upper_kelvin = 300.5
    scenario.config.sensor_lower_kelvin = 300.4
    return scenario


SCENARIOS = {
    "matrix_tm_cached": lambda: PRESETS.get("matrix_tm_cached")(),
    "hetero_biglittle": lambda: PRESETS.get("hetero_biglittle")(),
    "hetero_per_core": hetero_per_core,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_run_that_reuses_steady_power_matches_the_recomputing_reference(
    monkeypatch, name
):
    calls = power_calls(monkeypatch)
    framework, report, archive = record(SCENARIOS[name]())
    reused = facts(framework, report, archive)
    assert 0 < len(calls) < report.windows, "no steady window was reused"
    levels = len(calls)

    with monkeypatch.context() as patch:
        recompute_every_window(patch)
        calls.clear()
        framework, report, archive = record(SCENARIOS[name]())
        assert len(calls) == report.windows
    assert facts(framework, report, archive) == reused
    if name == "matrix_tm_cached":
        assert report.frequency_transitions > 0 and levels > 1
    if name == "hetero_per_core":
        assert report.extras["policy"]["switches"] > 0
        assert framework.power_model.tech_node is not None


def dse_batches(store):
    """Two run_batched calls on one store: the first records three
    (2, 1) designs on the (3, 3) grid and replays their (2, 2)-grid
    twins as followers; the second co-steps those twins (store hits)
    with three new live (2, 2)-grid designs in one group."""
    points = [p for p in default_points() if (p.big, p.little) == (2, 1)]
    coarse = [p for p in points if p.spreader_resolution == (2, 2)]
    fine = [p for p in points if p.spreader_resolution == (3, 3)]
    runner = Runner(capture_trace=True, trace_store=store)
    first = runner.run_batched([point_scenario(p) for p in fine[:3]]
                               + [point_scenario(p) for p in coarse[:3]])
    second = runner.run_batched([point_scenario(p) for p in coarse[:6]])
    return first + second


def dse_facts(results, store):
    assert all(result.ok for result in results)
    return ([(report_json(r.report),
              json.dumps(r.trace.to_dict(), sort_keys=True))
             for r in results],
            sorted(store.get(digest).power_w.tobytes()
                   for digest in store.digests()))


def test_dse_groups_with_replay_members_match_the_recomputing_reference(
    monkeypatch
):
    store = TraceStore()
    results = dse_batches(store)
    assert [r.replayed for r in results] == [False] * 3 + [True] * 6 + [False] * 3
    reused = dse_facts(results, store)

    with monkeypatch.context() as patch:
        recompute_every_window(patch)
        store = TraceStore()
        assert dse_facts(dse_batches(store), store) == reused


class ScriptedWorkload:
    """Emits a fresh utilization array every window, from a script of
    edits to one base vector, so only the values can say it repeats."""

    done = False
    instructions = 0.0

    def __init__(self, script):
        self.script = script
        self.window = 0

    def bind(self, power_model):
        self.base = power_model.utilization_vector(
            {("core", 0): 0.9, ("core", 1): 0.5, ("core", 2): 0.0,
             ("core", 3): 0.25}
        )
        self.slot = power_model.sources.index(("core", 2))

    def advance(self, cycles):
        row = self.base.copy()
        edit = self.script[self.window]
        self.window += 1
        if edit is not None:
            row[self.slot] = edit
        return row


def scripted_run(script, windows):
    framework = EmulationFramework(
        platform=None, floorplan=floorplan_4xarm11(),
        workload=ScriptedWorkload(script),
        config=FrameworkConfig(virtual_hz=500 * MHZ,
                               spreader_resolution=(2, 2)),
    )
    capture = framework.attach_capture(PowerTraceCapture())
    for _ in range(windows):
        framework.step_window()
    return framework, capture


#: Equal fresh vectors, then -0.0 for 0.0 and back, then NaN twice,
#: then the last good vector again.
SCRIPT = [None, None, None, -0.0, -0.0, None, 0.0, None, np.nan, np.nan, None]


def run_script(monkeypatch):
    """Eight good windows, two refused NaN windows and one more good
    window; returns ``(facts after eight, trace after the last, power
    conversions)``."""
    calls = power_calls(monkeypatch)
    framework, capture = scripted_run(SCRIPT, 8)
    first = facts(framework, framework.report(), capture.to_archive(framework))
    for _ in range(2):
        with pytest.raises(ValueError, match="utilization nan"):
            framework.step_window()
    framework.step_window()
    return first, json.dumps(framework.trace.to_dict()), len(calls)


def test_equal_fresh_vectors_reuse_and_a_signed_zero_or_nan_does_not(
    monkeypatch
):
    *reused, calls = run_script(monkeypatch)
    # Windows 0, 3 (-0.0), 5 (0.0 again) and both NaN windows convert;
    # 1, 2, 4, 6 (0.0 over 0.0), 7 and the last reuse.
    assert calls == 5
    power_w = np.frombuffer(reused[0][2]).reshape(8, -1)
    assert np.signbit(power_w[3:5]).any() and not np.signbit(power_w[5:]).any()

    with monkeypatch.context() as patch:
        recompute_every_window(patch)
        *reference, calls = run_script(patch)
    assert calls == 11
    assert reference == reused
