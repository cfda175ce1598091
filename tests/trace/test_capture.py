"""PowerTraceCapture: the dispatcher-boundary recording hook."""

import numpy as np
import pytest

from repro.trace.capture import PowerTraceCapture, record
from repro.trace.store import scenario_trace_digest
from tests.trace.conftest import short_scenario


def test_record_returns_live_run_plus_archive(stress_scenario, injections):
    framework, report, archive = record(stress_scenario)
    assert archive.windows == report.windows == framework.windows
    assert archive.components == framework.network.component_names
    assert archive.sampling_period_s == (
        framework.config.sampling_period_s
    )
    # Every window's injected power is reproducible from the archive:
    # the watts the live run injected last are its last recorded row,
    # and injection @ that row == the sources the live run injected.
    last = archive.power_w[-1]
    watts, sources = injections[-1]
    assert watts[:, 0].tobytes() == last.tobytes()
    assert sources.any()
    np.testing.assert_array_equal(
        framework.network._injection @ last, sources[:, 0]
    )


def test_archive_metadata_carries_provenance(stress_scenario):
    framework, report, archive = record(stress_scenario)
    meta = archive.metadata
    assert meta["scenario"]["name"] == stress_scenario.name
    assert meta["scenario_digest"] == scenario_trace_digest(stress_scenario)
    assert meta["report"] == report.to_dict()
    assert meta["trace_digest"] == framework.trace.digest()
    assert meta["floorplan"] == framework.floorplan.name


def test_a_capture_attached_after_window_k_archives_from_k(stress_scenario):
    framework = stress_scenario.build()
    whole = framework.attach_capture(PowerTraceCapture())
    for _ in range(3):
        framework.step_window()
    late = framework.attach_capture(PowerTraceCapture())
    for _ in range(5):
        framework.step_window()
    full, tail = whole.to_archive(framework), late.to_archive(framework)
    assert (full.windows, tail.windows) == (8, 5)
    for column in ("power_w", "frequency_hz", "time_s", "component_temps_k"):
        np.testing.assert_array_equal(
            getattr(tail, column), getattr(full, column)[3:]
        )


def test_recorded_times_and_frequencies_match_trace(stress_scenario):
    framework, _, archive = record(stress_scenario)
    times = [s.time_s for s in framework.trace.samples]
    np.testing.assert_array_equal(archive.time_s, np.array(times))
    freqs = [s.frequency_hz for s in framework.trace.samples]
    np.testing.assert_array_equal(archive.frequency_hz, np.array(freqs))


def test_recorded_temps_match_trace_samples(stress_scenario):
    framework, _, archive = record(stress_scenario)
    sample = framework.trace.samples[3]
    row = archive.component_temps_k[3]
    for name, value in sample.component_temps.items():
        assert row[archive.components.index(name)] == value


def test_capture_on_unknown_component_fails_loudly(stress_scenario):
    framework = stress_scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    framework.step_window()
    with pytest.raises(KeyError, match="no floorplan component"):
        capture.on_window(framework, {"bogus": 1.0})


def test_zero_window_recording_saves_strict_json(tmp_path):
    """Regression: a zero-window run's NaN peak must not leak a bare
    NaN token into the JSON metadata sidecar."""
    import json

    from repro.trace.format import sidecar_path

    scenario = short_scenario()
    scenario.max_emulated_seconds = None
    scenario.max_windows = 0
    _, report, archive = record(scenario)
    assert report.windows == 0
    path = archive.save(tmp_path / "empty.npz")
    meta = json.loads(
        sidecar_path(path).read_text(), parse_constant=_reject_nan
    )
    assert meta["report"]["peak_temperature_k"] is None
    assert meta["trace_digest"]["peak_temperature_k"] is None


def _reject_nan(token):
    raise AssertionError(f"non-strict JSON token {token!r} in sidecar")


def test_unscripted_capture_gets_content_digest(stress_scenario):
    framework = stress_scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    for _ in range(5):
        framework.step_window()
    archive = capture.to_archive(framework)  # no scenario attached
    assert archive.scenario is None
    assert len(archive.scenario_digest) == 64
