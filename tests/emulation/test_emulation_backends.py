"""The EMULATION_BACKENDS registry: contract, equivalence, provenance.

The heart of this module is the registry-driven equivalence property
test: **every** registered backend runs the same ~50-window MATRIX
scenario and must agree with the ``event_driven`` reference — identical
completion semantics, instruction totals, and per-window total power
within the tolerance the backend itself declares
(``power_tolerance_pct``).  A backend registered without meeting its own
declaration fails here, not in production sweeps.

At the default preset's own window size the ``windowed`` fast path is
held to a tighter band and must advance the emulate phase at least 10x
faster than ``event_driven``.
"""

import json

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig
from repro.emulation.backends import (
    EMULATION_BACKENDS,
    CycleAccurateBackend,
    EmulationBackend,
    EventDrivenBackend,
    WindowedBackend,
    make_emulation_backend,
)
from repro.emulation.windowed import (
    calibration_cache_size,
    clear_calibration_cache,
)
from repro.scenario.spec import Scenario
from repro.trace.capture import PowerTraceCapture
from repro.trace.store import scenario_trace_digest
from tests.conftest import PRESET_SIZES, quickstart_scenario

# ~50 windows: 5 MATRIX iterations is ~105k cycles; 20 us windows are
# 2000 cycles at the preset's 100 MHz virtual clock.
EQUIVALENCE_ITERATIONS = 5
EQUIVALENCE_SAMPLING_S = 2e-5


def equivalence_scenario(backend, iterations=EQUIVALENCE_ITERATIONS,
                         sampling_period_s=EQUIVALENCE_SAMPLING_S):
    return quickstart_scenario(backend, iterations, sampling_period_s)


def run_equivalence(backend, **sizes):
    """Run the shared scenario on ``backend``; returns (report, archive)."""
    scenario = equivalence_scenario(backend, **sizes)
    framework = scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    report = framework.run()
    archive = capture.to_archive(framework, scenario=scenario, report=report)
    return report, archive


@pytest.fixture(scope="module")
def reference_run():
    """The event-driven ground truth every backend is measured against."""
    return run_equivalence("event_driven")


@pytest.fixture(scope="module")
def backend_runs():
    """One run per registered backend (cached across this module)."""
    return {name: run_equivalence(name) for name in EMULATION_BACKENDS.names()}


# -- the registry-driven equivalence property ------------------------------


@pytest.mark.parametrize("name", EMULATION_BACKENDS.names())
def test_backend_meets_its_declared_tolerance(name, reference_run, backend_runs):
    ref_report, ref_archive = reference_run
    report, archive = backend_runs[name]
    backend = make_emulation_backend(name)
    assert ref_report.windows >= 50, "scenario too short to be a property test"
    # Completion semantics: every backend finishes the same workload.
    assert report.workload_done
    assert report.instructions == pytest.approx(ref_report.instructions, rel=5e-3)
    # Per-window total platform power, within the backend's own claim.
    ref_power = ref_archive.power_w.sum(axis=1)
    power = archive.power_w.sum(axis=1)
    overlap = min(len(ref_power), len(power))
    assert overlap >= 50
    deviation = np.abs(power[:overlap] - ref_power[:overlap]) / np.maximum(
        ref_power[:overlap], 1e-12
    )
    worst_pct = float(np.max(deviation)) * 100.0
    assert worst_pct <= backend.power_tolerance_pct or name == "event_driven", (
        f"{name} deviates {worst_pct:.2f}% from event_driven, declared "
        f"{backend.power_tolerance_pct:g}%"
    )
    if name == "event_driven":
        assert worst_pct == 0.0


def test_windowed_matches_reference_window_for_window(reference_run, backend_runs):
    """The fast path must mirror the reference's shape, not just its power."""
    ref_report, ref_archive = reference_run
    report, archive = backend_runs["windowed"]
    assert report.windows == ref_report.windows
    assert archive.power_w.shape == ref_archive.power_w.shape
    assert report.extras["end_cycle"] == pytest.approx(
        ref_report.extras["end_cycle"], rel=1e-6
    )


@pytest.mark.parametrize(
    "name",
    [n for n in EMULATION_BACKENDS.names()
     if EMULATION_BACKENDS.get(n).exact],
)
def test_exact_backends_are_bit_for_bit_deterministic(name, backend_runs):
    report, archive = backend_runs[name]
    again_report, again_archive = run_equivalence(name)
    assert archive.metadata["trace_digest"] == again_archive.metadata["trace_digest"]
    assert np.array_equal(archive.power_w, again_archive.power_w)
    assert report.instructions == again_report.instructions


def test_windowed_replay_is_deterministic_too(backend_runs):
    """Approximate does not mean noisy: same calibration, same stream."""
    _, archive = backend_runs["windowed"]
    _, again = run_equivalence("windowed")
    assert np.array_equal(archive.power_w, again.power_w)


# -- the backend resolver (mirrors make_backend) ---------------------------


def test_make_emulation_backend_resolution():
    assert isinstance(make_emulation_backend(None), EventDrivenBackend)
    assert isinstance(make_emulation_backend("cycle_accurate"), CycleAccurateBackend)
    windowed = make_emulation_backend(
        {"name": "windowed", "params": {"max_utilization": 0.9}}
    )
    assert isinstance(windowed, WindowedBackend)
    assert windowed.max_utilization == 0.9
    prebuilt = WindowedBackend()
    assert make_emulation_backend(prebuilt) is prebuilt


def test_make_emulation_backend_rejects_bad_specs():
    with pytest.raises(ValueError, match="needs a 'name' entry"):
        make_emulation_backend({"params": {}})
    with pytest.raises(ValueError, match="unknown emulation-backend keys"):
        make_emulation_backend({"name": "windowed", "extra": 1})
    with pytest.raises(ValueError, match="unknown emulation backend"):
        make_emulation_backend("not_a_backend")
    with pytest.raises(TypeError):
        make_emulation_backend(42)


def test_windowed_backend_validates_params():
    with pytest.raises(ValueError, match="max_utilization"):
        WindowedBackend(max_utilization=1.5)
    with pytest.raises(ValueError, match="calibration budget"):
        WindowedBackend(calibration_max_instructions=0)


def test_every_registered_backend_declares_its_contract():
    for name in EMULATION_BACKENDS.names():
        backend = make_emulation_backend(name)
        assert backend.name == name
        assert isinstance(backend, EmulationBackend)
        assert isinstance(backend.exact, bool)
        assert backend.power_tolerance_pct >= 0.0


# -- FrameworkConfig knob: validation + JSON round-trip --------------------


def test_config_validates_emulation_backend():
    FrameworkConfig(emulation_backend="windowed")  # fine
    with pytest.raises(ValueError, match="unknown emulation backend"):
        FrameworkConfig(emulation_backend="nope")
    with pytest.raises(ValueError, match="registered name"):
        FrameworkConfig(emulation_backend=42)


def test_config_round_trips_emulation_backend():
    spec = {"name": "windowed", "params": {"max_utilization": 0.9}}
    config = FrameworkConfig(emulation_backend=spec)
    data = json.loads(json.dumps(config.to_dict()))
    assert data["emulation_backend"] == spec
    assert FrameworkConfig.from_dict(data).emulation_backend == spec


def test_scenario_round_trips_emulation_backend():
    scenario = equivalence_scenario("windowed")
    data = json.loads(json.dumps(scenario.to_dict()))
    restored = Scenario.from_dict(data)
    assert restored.config.emulation_backend == "windowed"


# -- provenance -------------------------------------------------------------


def test_emulation_backend_participates_in_trace_digest():
    """Recordings from different emulation backends must never alias."""
    exact = equivalence_scenario("event_driven")
    fast = equivalence_scenario("windowed")
    assert scenario_trace_digest(exact.to_dict()) != scenario_trace_digest(
        fast.to_dict()
    )


def test_archive_metadata_names_the_backend(backend_runs):
    for name, (_report, archive) in backend_runs.items():
        assert archive.metadata["emulation_backend"] == name


def test_report_extras_name_the_backend(backend_runs):
    for name, (report, _archive) in backend_runs.items():
        assert report.extras["emulation_backend"] == name


# -- windowed internals: calibration cache + framework timing --------------


def test_calibration_is_cached_per_platform_content():
    clear_calibration_cache()
    scenario = equivalence_scenario("windowed")
    scenario.build()  # building the framework calibrates the backend
    assert calibration_cache_size() == 1
    scenario.build()  # same platform content: cache hit, no re-run
    assert calibration_cache_size() == 1


def test_timing_breakdown_in_report_extras(backend_runs):
    report, _ = backend_runs["event_driven"]
    timing = report.extras["timing"]
    assert set(timing) == {"emulate", "power", "dispatch", "solve", "other"}
    assert timing["emulate"] > 0.0
    assert timing["power"] > 0.0
    assert timing["solve"] > 0.0
    assert all(value >= 0.0 for value in timing.values())


# -- CLI --------------------------------------------------------------------


def test_cli_lists_emulation_backends(capsys):
    from repro.__main__ import main

    assert main(["--list-emulation-backends"]) == 0
    out = capsys.readouterr().out
    for name in EMULATION_BACKENDS.names():
        assert name in out


def test_cli_rejects_unknown_emulation_backend(capsys):
    from repro.__main__ import main

    assert main(["matrix_quickstart", "--emulation-backend", "bogus"]) == 2
    assert "unknown emulation backend" in capsys.readouterr().err


# -- the default preset at 1 ms windows: equivalence + speedup gate --------

#: On the preset's window size the fast path must stay within a few
#: percent: tighter than the backend's universal declaration, which also
#: covers boundary windows at much finer sampling.
PRESET_POWER_TOLERANCE_PCT = 3.0
WINDOWED_SPEEDUP_BAR = 10.0


def test_windowed_matches_and_outpaces_event_driven_on_the_preset():
    clear_calibration_cache()
    reference, ref_archive = run_equivalence("event_driven", **PRESET_SIZES)
    run_equivalence("windowed", **PRESET_SIZES)  # pays the calibration
    assert calibration_cache_size() == 1, "calibration was not cached"
    report, archive = run_equivalence("windowed", **PRESET_SIZES)
    assert calibration_cache_size() == 1

    assert report.windows == reference.windows
    assert report.workload_done == reference.workload_done
    assert report.instructions == pytest.approx(
        reference.instructions, rel=5e-3
    )
    tolerance = min(
        EMULATION_BACKENDS.get("windowed").power_tolerance_pct,
        PRESET_POWER_TOLERANCE_PCT,
    )
    ref_power = ref_archive.power_w.sum(axis=1)
    power = archive.power_w.sum(axis=1)
    deviation = np.abs(power - ref_power) / np.maximum(ref_power, 1e-12)
    worst_pct = float(np.max(deviation)) * 100.0
    assert worst_pct <= tolerance, (
        f"per-window power off by {worst_pct:.2f}% (tolerance {tolerance:g}%)"
    )
    speedup = reference.extras["timing"]["emulate"] / max(
        report.extras["timing"]["emulate"], 1e-12
    )
    assert speedup >= WINDOWED_SPEEDUP_BAR, (
        f"windowed must advance windows >= {WINDOWED_SPEEDUP_BAR:.0f}x "
        f"faster than event_driven, measured {speedup:.1f}x"
    )
