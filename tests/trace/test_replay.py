"""Record -> replay fidelity and the thermal-side override knobs."""

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig
from repro.obs.timeline import PHASE_ORDER
from repro.thermal.properties import (
    SILICON_VOLUMETRIC_HEAT,
    Material,
    ThermalProperties,
)
from repro.trace.capture import record
from repro.trace.replay import ReplaySource, replay
from tests.trace.conftest import short_scenario

#: (preset, solver backend) grid of the fidelity property test: the
#: paper's default preset family across the registered serial backends.
FIDELITY_CASES = [
    ("matrix_tm_unmanaged", "sparse_be"),
    ("matrix_tm_unmanaged", "cached_lu"),
    ("matrix_tm_dfs", "sparse_be"),
    ("matrix_tm_dfs", "cached_lu"),
    ("matrix_tm_cached", "cached_lu"),
    ("matrix_quickstart", "sparse_be"),
]


@pytest.mark.parametrize("preset,backend", FIDELITY_CASES)
def test_replay_reproduces_live_digest_exactly(preset, backend):
    """The acceptance property: replaying a recording under unchanged
    knobs reproduces the live ThermalTrace digest bit-for-bit, across
    presets (profiled + cycle-accurate, managed + unmanaged) and solver
    backends."""
    scenario = short_scenario(preset, seconds=1.0)
    scenario.config.solver_backend = backend
    framework, _, archive = record(scenario)
    player, _ = replay(archive)
    assert player.trace.digest() == framework.trace.digest()
    # Stronger than the digest: every sample matches field by field.
    for live, rep in zip(framework.trace.samples, player.trace.samples):
        assert live.time_s == rep.time_s
        assert live.frequency_hz == rep.frequency_hz
        assert live.max_temp_k == rep.max_temp_k
        assert live.component_temps == rep.component_temps
        assert live.events == rep.events


@pytest.mark.parametrize("stride", [1, 4])
def test_replay_of_an_archive_whose_config_carries_trace_stride(stride):
    """Archives recorded while the trace could be decimated keep
    ``trace_stride`` in their config; a plain replay drops it and
    reproduces the closed loop."""
    framework, live_report, archive = record(short_scenario("matrix_tm_dfs"))
    archive.metadata["config"]["trace_stride"] = stride
    player, report = replay(archive)
    assert player.trace.digest() == framework.trace.digest()
    assert report.peak_temperature_k == live_report.peak_temperature_k
    assert report.extras["replay"]["overrides"] == {}


def test_replay_report_carries_recorded_emulation_facts(stress_scenario):
    _, live_report, archive = record(stress_scenario)
    _, report = replay(archive)
    assert report.emulated_seconds == live_report.emulated_seconds
    assert report.fpga_real_seconds == live_report.fpga_real_seconds
    assert report.workload_done == live_report.workload_done
    assert report.instructions == live_report.instructions
    assert report.peak_temperature_k == live_report.peak_temperature_k
    provenance = report.extras["replay"]
    assert provenance["scenario_digest"] == archive.scenario_digest
    assert provenance["recorded_windows"] == archive.windows
    assert provenance["overrides"] == {}


def test_complete_replay_reports_its_own_timing():
    """A full replay takes the recording's emulation facts, not its phase
    timing: nothing is emulated or converted, and the solve is its own."""
    _, _, archive = record(short_scenario("matrix_tm_cached"))
    _, report = replay(archive)
    assert report.extras["replay"]["replayed_windows"] == archive.windows
    timing = report.extras["timing"]
    assert tuple(timing) == PHASE_ORDER
    assert timing["emulate"] == timing["power"] == 0.0
    assert timing["solve"] > 0.0


def test_thermal_knob_overrides_change_the_solve(stress_scenario):
    _, live_report, archive = record(stress_scenario)
    _, report = replay(
        archive,
        config={
            "grid_mode": "uniform",
            "die_resolution": [10, 10],
            "spreader_resolution": [10, 10],
            "solver_backend": "cached_lu",
        },
    )
    assert report.extras["thermal_cells"] == 200
    overrides = report.extras["replay"]["overrides"]
    assert overrides["die_resolution"] == [10, 10]
    assert overrides["solver_backend"] == "cached_lu"
    # Different discretization, same physics: the peak moves a little,
    # not wildly.
    assert abs(
        report.peak_temperature_k - live_report.peak_temperature_k
    ) < 10.0


def test_material_properties_override(stress_scenario):
    """Frozen k(300 K) silicon must run cooler than the non-linear law —
    the Table 2 property, checked through replay."""
    _, live_report, archive = record(stress_scenario)
    frozen = ThermalProperties(
        die_material=Material("si-const", 150.0, SILICON_VOLUMETRIC_HEAT)
    )
    _, report = replay(archive, properties=frozen)
    assert report.extras["replay"]["overrides"]["properties"] == "custom"
    assert report.peak_temperature_k < live_report.peak_temperature_k


def test_initial_temperature_override(stress_scenario):
    _, _, archive = record(stress_scenario)
    player, report = replay(
        archive, config={"initial_temperature_kelvin": 320.0}
    )
    assert player.trace.samples[0].max_temp_k > 315.0


def test_sampling_period_override_is_rejected(stress_scenario):
    _, _, archive = record(stress_scenario)
    with pytest.raises(ValueError, match="sampling period"):
        replay(archive, config={"sampling_period_s": 0.02})


def test_mismatched_floorplan_is_rejected(stress_scenario):
    _, _, archive = record(stress_scenario)  # recorded on 4xarm11
    with pytest.raises(ValueError, match="component set"):
        replay(archive, floorplan="4xarm7")


def test_unknown_monitored_component_is_rejected_like_a_live_launch():
    """Replay validates the sensor set exactly as the live launch does,
    instead of replaying the whole recording with a blind sensor."""
    scenario = short_scenario("matrix_tm_cached")
    scenario.max_windows = 5
    _, _, archive = record(scenario)
    live = short_scenario("matrix_tm_cached")
    live.config.monitored_components = ("nope",)
    with pytest.raises(ValueError, match="nope not in floorplan") as launch:
        live.build()
    with pytest.raises(ValueError, match="nope not in floorplan") as replayed:
        replay(archive, config={"monitored_components": ["nope"]})
    assert str(replayed.value) == str(launch.value)


def test_replay_respects_max_windows(stress_scenario):
    _, _, archive = record(stress_scenario)
    player, report = replay(archive, max_windows=10)
    assert report.windows == 10
    assert not report.workload_done  # truncated replays don't inherit
    assert report.extras["replay"]["replayed_windows"] == 10
    assert len(player.trace) == 10


def test_exhausted_replay_raises_past_the_end(stress_scenario):
    _, _, archive = record(stress_scenario)
    player = ReplaySource(archive)
    player.run()
    assert player.exhausted
    with pytest.raises(IndexError, match="exhausted"):
        player.step_window()


def test_replay_config_object_roundtrip(stress_scenario):
    """A full FrameworkConfig (the runner's path) works like overrides."""
    _, _, archive = record(stress_scenario)
    config = FrameworkConfig.from_dict(archive.metadata["config"])
    config.die_resolution = (6, 6)
    config.grid_mode = "uniform"
    config.spreader_resolution = (6, 6)
    player, report = replay(archive, config=config)
    assert report.extras["thermal_cells"] == 72


def test_replay_power_injection_is_bitwise(stress_scenario, injections):
    """The replay injects the live run's watts, and the same per-cell
    sources, bit for bit."""
    live = stress_scenario.build()
    from repro.trace.capture import PowerTraceCapture

    capture = live.attach_capture(PowerTraceCapture())
    live.step_window()
    archive = capture.to_archive(live, scenario=stress_scenario)
    player = ReplaySource(archive)
    replayed = []
    window_recorded = player._window_recorded

    def recording():
        frequency, watts = window_recorded()
        replayed.append(watts.copy())
        return frequency, watts

    player._window_recorded = recording
    player.step_window()
    (live_watts, live_sources), (replay_watts, replay_sources) = injections
    assert archive.power_w[0].tobytes() == live_watts[:, 0].tobytes()
    assert replayed[0].tobytes() == replay_watts[:, 0].tobytes()
    assert replayed[0].tobytes() == archive.power_w[0].tobytes()
    assert live_sources.any()
    assert replay_sources.tobytes() == live_sources.tobytes()
    assert player.solver.temperatures.shape == (player.network.num_cells,)
