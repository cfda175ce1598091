"""Hot-path instrumentation: spans, timing sums, counter publishing."""

import pytest

from repro.emulation.windowed import clear_calibration_cache
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.obs.timeline import PHASE_ORDER, RunTimeline
from repro.obs.tracing import SpanTracer
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.trace.capture import record
from repro.trace.replay import ReplaySource, replay
from repro.trace.store import TraceStore


def quick_scenario(backend="event_driven"):
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.workload.params["iterations"] = 2
    scenario.config.sampling_period_s = 2e-5
    scenario.config.emulation_backend = backend
    return scenario


def quick_framework(backend="event_driven"):
    return quick_scenario(backend).build()


def counter_value(name, **labels):
    family = obs_catalog.counter(
        name, labels=tuple(sorted(labels)) if labels else ()
    )
    return family.labels(**labels).value if labels else family.value


# -- framework spans -------------------------------------------------------


def serial_path():
    framework = quick_framework()
    return lambda: [framework.run(max_windows=8)]


def replay_path():
    _, _, archive = record(quick_scenario())
    return lambda: [replay(archive)[1]]


def batched_path():
    scenarios = []
    for upper in (350.0, 355.0):
        scenario = quick_scenario()
        scenario.name = f"upper{upper:g}"
        scenario.config.sensor_upper_kelvin = upper
        scenarios.append(scenario)
    return lambda: [r.report for r in Runner().run_batched(scenarios)]


@pytest.mark.parametrize(
    "path", [serial_path, replay_path, batched_path],
    ids=["serial", "replay", "batched"],
)
def test_run_emits_run_and_window_spans(path):
    """The one window driver emits the window spans on every path."""
    run = path()
    tracer = SpanTracer()
    with obs_tracing.activate(tracer):
        reports = run()
    timeline = RunTimeline(tracer.events)
    windows = sum(report.windows for report in reports)
    assert windows > 0
    for phase in PHASE_ORDER:
        assert timeline.by_name["window." + phase]["count"] == windows
    if path is not batched_path:
        [report] = reports
        assert timeline.by_name["run"]["count"] == 1
        run_event = next(e for e in tracer.events if e["name"] == "run")
        assert run_event["attrs"]["windows"] == report.windows
        assert run_event["attrs"]["backend"] == (
            "replay" if path is replay_path else "event_driven"
        )
    # The span log reconstructs the reports' summed timing breakdown.
    for phase, wall in timeline.phases().items():
        timing = sum(report.extras["timing"][phase] for report in reports)
        assert wall == pytest.approx(timing, abs=1e-6)


def test_timing_phases_cover_window_wall_time():
    framework = quick_framework()
    report = framework.run(max_windows=8)
    timing = report.extras["timing"]
    assert set(timing) == set(PHASE_ORDER)
    assert all(wall >= 0.0 for wall in timing.values())
    assert timing["other"] > 0.0  # sensors/policy residual is never free


def test_untraced_run_records_no_spans():
    assert obs_tracing.current() is None
    framework = quick_framework()
    framework.run(max_windows=4)  # must not raise, must not trace


# -- metric publishing -----------------------------------------------------


def replay_source():
    _, _, archive = record(quick_scenario())
    return ReplaySource(archive)


@pytest.mark.parametrize(
    "build", [quick_framework, replay_source], ids=["live", "replay"]
)
def test_publish_metrics_counts_each_window_once(build):
    framework = build()
    windows_before = counter_value("repro_run_windows_total")
    report = framework.run(max_windows=6)
    assert (
        counter_value("repro_run_windows_total") - windows_before
        == report.windows
    )
    # report() again without new windows: nothing double counted.
    framework.report()
    assert (
        counter_value("repro_run_windows_total") - windows_before
        == report.windows
    )
    # More windows publish only the delta.
    framework.step_window()
    framework.report()
    assert (
        counter_value("repro_run_windows_total") - windows_before
        == report.windows + 1
    )


def test_publish_metrics_covers_phases_and_solver():
    framework = quick_framework()
    backend = framework.solver.backend.name or "custom"
    solve_before = counter_value(
        "repro_run_phase_seconds_total", phase="solve"
    )
    solves_before = counter_value(
        "repro_solver_solves_total", backend=backend
    )
    report = framework.run(max_windows=6)
    solve_delta = (
        counter_value("repro_run_phase_seconds_total", phase="solve")
        - solve_before
    )
    assert solve_delta == pytest.approx(
        report.extras["timing"]["solve"], abs=1e-9
    )
    assert (
        counter_value("repro_solver_solves_total", backend=backend)
        - solves_before
        == framework.solver.backend.stats()["solves"]
    )


# -- trace store counters --------------------------------------------------


class _StubArchive:
    scenario_digest = "a" * 64

    def validate(self):
        pass


def test_store_counts_hits_misses_and_puts():
    store = TraceStore()
    hits0 = counter_value("repro_store_hits_total")
    misses0 = counter_value("repro_store_misses_total")
    puts0 = counter_value("repro_store_puts_total")
    assert store.get("f" * 64) is None
    archive = _StubArchive()
    store.put(archive)
    assert store.get(archive.scenario_digest) is archive
    # A falsy digest is a caller error, not a store lookup: uncounted.
    assert store.get("") is None
    assert counter_value("repro_store_hits_total") - hits0 == 1
    assert counter_value("repro_store_misses_total") - misses0 == 1
    assert counter_value("repro_store_puts_total") - puts0 == 1


# -- calibration cache counters --------------------------------------------


def test_windowed_calibration_counts_miss_then_hits():
    clear_calibration_cache()
    misses0 = counter_value("repro_emulation_calibration_misses_total")
    hits0 = counter_value("repro_emulation_calibration_hits_total")
    quick_framework("windowed").run(max_windows=4)
    assert (
        counter_value("repro_emulation_calibration_misses_total") - misses0
        == 1
    )
    quick_framework("windowed").run(max_windows=4)
    assert (
        counter_value("repro_emulation_calibration_hits_total") - hits0 == 1
    )
    assert (
        counter_value("repro_emulation_calibration_misses_total") - misses0
        == 1
    )


def test_calibration_miss_emits_span_when_tracing():
    clear_calibration_cache()
    tracer = SpanTracer()
    with obs_tracing.activate(tracer):
        quick_framework("windowed").run(max_windows=2)
    calibrations = [
        e for e in tracer.events if e["name"] == "emulation.calibrate"
    ]
    assert len(calibrations) == 1
    assert calibrations[0]["attrs"]["digest"]
