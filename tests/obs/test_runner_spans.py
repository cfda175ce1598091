"""The runner's orchestration spans: ``runner.plan``/``runner.setup``.

A batch spends much of a design sweep outside the window loop: parsing,
digesting and store lookups (the plan), then scenario builds and replay
set-ups.  Both entry points, ``Runner.run`` and ``Runner.run_batched``,
emit one event for each per batch, so a span log of a ``dse`` run
accounts for that time, and tracing costs nothing per member.
"""

import json

import pytest

from repro.dse import space
from repro.dse.cli import main as dse_main
from repro.obs import cli as obs_cli
from repro.obs.timeline import RunTimeline
from repro.obs.tracing import SpanTracer, activate
from repro.scenario.runner import Runner
from repro.util.units import MHZ


def _twins():
    """Two designs, each in both grids: two builds and two replays on
    two floorplans."""
    points = space.generate_points(
        big_counts=(1,), little_counts=(0, 1), tech_nodes=("65nm",),
        big_hz_steps=(200 * MHZ,),
    )
    return [space.point_scenario(p, max_windows=3) for p in points]


@pytest.mark.parametrize("entry", ["run", "run_batched"])
def test_run_batched_emits_one_plan_and_one_setup_event(entry):
    tracer = SpanTracer()
    with activate(tracer):
        results = getattr(Runner(trace_store=True), entry)(_twins())
    assert all(r.ok for r in results)
    by_name = {}
    for event in tracer.events:
        by_name.setdefault(event["name"], []).append(event)
    (plan,) = by_name["runner.plan"]
    (setup,) = by_name["runner.setup"]
    assert plan["attrs"] == {"scenarios": 4, "digests": 4}
    # Two designs on two floorplans, each resolved once for both grids.
    assert setup["attrs"] == {"builds": 2, "replays": 2, "floorplans": 2}
    assert plan["wall_s"] > 0 and setup["wall_s"] > 0
    (batch,) = by_name["runner.batch"]
    assert plan["wall_s"] + setup["wall_s"] < batch["wall_s"]


def test_dse_obs_log_attributes_orchestration(tmp_path, capsys):
    log = tmp_path / "dse.jsonl"
    assert dse_main([
        "--nodes", "65nm", "--big-hz", "200", "--max-windows", "2",
        "--refine-top", "0", "--obs-log", str(log),
    ]) == 0
    timeline = RunTimeline.from_jsonl(str(log))
    assert timeline.by_name["runner.plan"]["count"] == 1
    assert timeline.by_name["runner.setup"]["count"] == 1
    capsys.readouterr()
    assert obs_cli.main(["timeline", str(log), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["spans"]["runner.setup"]["wall_s"] > 0
