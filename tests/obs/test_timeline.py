"""RunTimeline: JSONL round-trip, phase math, digest stability."""

import json
import pathlib

import pytest

from repro.__main__ import main as repro_main
from repro.obs.timeline import PHASE_ORDER, RunTimeline
from repro.obs.tracing import SpanTracer


def _trace_run(wall_by_phase, windows=3):
    """A synthetic run: per-window phase leaves under one run span."""
    tracer = SpanTracer()
    with tracer.span("run", backend="functional"):
        for _ in range(windows):
            for phase, wall in wall_by_phase.items():
                tracer.emit("window." + phase, wall)
    return tracer


WALLS = {
    "emulate": 0.004, "power": 0.001, "dispatch": 0.002,
    "solve": 0.008, "other": 0.0005,
}


def test_phases_in_canonical_order():
    tracer = _trace_run(WALLS)
    timeline = RunTimeline(tracer.events)
    assert list(timeline.phases()) == list(PHASE_ORDER)
    assert timeline.phases()["solve"] == pytest.approx(3 * 0.008)


def test_phases_and_total():
    timeline = RunTimeline(_trace_run(WALLS).events)
    timing = timeline.phases()
    assert set(timing) == set(PHASE_ORDER)
    assert timeline.total_wall_s() == pytest.approx(sum(timing.values()))


def test_phase_shares_sum_to_one():
    timeline = RunTimeline(_trace_run(WALLS).events)
    shares = timeline.phase_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["solve"] > shares["power"]


def test_phase_shares_empty_without_phases():
    assert RunTimeline([]).phase_shares() == {}


def test_total_falls_back_to_run_span():
    tracer = SpanTracer()
    tracer.emit("run", 1.5)
    assert RunTimeline(tracer.events).total_wall_s() == 1.5


def test_jsonl_round_trip_summary_is_digest_stable(tmp_path):
    log = tmp_path / "run.jsonl"
    tracer = SpanTracer(sink=str(log))
    with tracer.span("run"):
        for _ in range(2):
            for phase in PHASE_ORDER:
                tracer.emit("window." + phase, 0.001)
    tracer.close()

    direct = RunTimeline(tracer.events)
    parsed = RunTimeline.from_jsonl(str(log))
    assert parsed.summary() == direct.summary()
    # Same structure with different wall clocks → same digest.
    slower = _trace_run(
        {phase: 0.5 for phase in PHASE_ORDER}, windows=2
    )
    assert RunTimeline(slower.events).digest() == parsed.digest()
    # Different structure (one more window) → different digest.
    other = _trace_run({phase: 0.001 for phase in PHASE_ORDER}, windows=3)
    assert RunTimeline(other.events).digest() != parsed.digest()


def test_from_jsonl_reads_a_path_object_as_a_path(tmp_path):
    log = tmp_path / "run.jsonl"
    tracer = _trace_run(WALLS)
    log.write_text("".join(json.dumps(event) + "\n" for event in tracer.events))
    expected = RunTimeline(tracer.events).summary()
    assert RunTimeline.from_jsonl(log).summary() == expected
    assert RunTimeline.from_jsonl(str(log)).summary() == expected
    # One-line text that starts with "{" is still the log itself.
    one = json.dumps(tracer.events[0])
    assert RunTimeline.from_jsonl(one).events == [tracer.events[0]]


@pytest.mark.parametrize("as_path", [str, pathlib.Path], ids=["str", "Path"])
def test_from_jsonl_on_a_missing_path_raises_file_not_found(tmp_path, as_path):
    with pytest.raises(FileNotFoundError):
        RunTimeline.from_jsonl(as_path(tmp_path / "mistyped.jsonl"))


def test_summary_is_json_safe():
    summary = RunTimeline(_trace_run(WALLS).events).summary()
    reloaded = json.loads(json.dumps(summary))
    assert reloaded == summary
    assert reloaded["events"] == 1 + 3 * len(WALLS)


def test_render_shows_all_phases_and_total():
    text = RunTimeline(_trace_run(WALLS).events).render()
    for phase in PHASE_ORDER:
        assert phase in text
    assert "total" in text
    assert "other spans: run x1" in text


@pytest.mark.parametrize("content", [None, "not json\n"],
                         ids=["missing", "malformed"])
def test_timeline_cli_refuses_a_bad_log_with_one_error_line(
    tmp_path, capsys, content
):
    log = tmp_path / "run.jsonl"
    if content is not None:
        log.write_text(content)
    assert repro_main(["obs", "timeline", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
