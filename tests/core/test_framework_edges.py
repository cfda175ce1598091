"""Framework edge cases: reports, initial temperature, monitoring subsets."""

import math

import pytest

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.policy import DualThresholdDfsPolicy, NoManagementPolicy
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ


def profile():
    utilization = {("core", i): 0.9 for i in range(4)}
    return ActivityProfile(name="p", cycles_per_iteration=1000,
                           utilization=utilization)


def make_framework(**config_overrides):
    return EmulationFramework(
        platform=None,
        floorplan=floorplan_4xarm11(),
        workload=ProfiledWorkload(profile(), total_iterations=10**8),
        policy=NoManagementPolicy(),
        config=FrameworkConfig(
            virtual_hz=500 * MHZ, spreader_resolution=(2, 2), **config_overrides
        ),
    )


def test_initial_temperature_override():
    framework = make_framework(initial_temperature_kelvin=345.0)
    assert framework.solver.max_temperature() == pytest.approx(345.0)
    sample = framework.step_window()
    assert sample.max_temp_k > 330.0  # starts warm, not from ambient


def test_monitored_subset():
    framework = EmulationFramework(
        platform=None,
        floorplan=floorplan_4xarm11(),
        workload=ProfiledWorkload(profile(), total_iterations=10**6),
        policy=DualThresholdDfsPolicy(),
        config=FrameworkConfig(
            virtual_hz=500 * MHZ,
            spreader_resolution=(2, 2),
            monitored_components=("arm11_0",),
        ),
    )
    assert set(framework.sensors.sensors) == {"arm11_0"}


def test_config_rejects_inverted_sensor_thresholds():
    with pytest.raises(ValueError, match="upper threshold"):
        FrameworkConfig(sensor_upper_kelvin=340.0, sensor_lower_kelvin=350.0)
    with pytest.raises(ValueError, match="upper threshold"):
        FrameworkConfig(sensor_upper_kelvin=350.0, sensor_lower_kelvin=350.0)


def test_config_rejects_nonpositive_ethernet_bandwidth():
    with pytest.raises(ValueError, match="Ethernet bandwidth"):
        FrameworkConfig(ethernet_bandwidth_bps=0.0)
    with pytest.raises(ValueError, match="Ethernet bandwidth"):
        FrameworkConfig(ethernet_bandwidth_bps=-1.0)


def test_config_rejects_empty_monitored_components():
    # Regression: an explicitly empty monitored set used to build a
    # sensorless framework whose first window crashed on
    # max(temps.values()) with a bare ValueError.
    with pytest.raises(ValueError, match="at least one component"):
        FrameworkConfig(monitored_components=())
    with pytest.raises(ValueError, match="at least one component"):
        FrameworkConfig(monitored_components=[])


def test_launch_rejects_floorplan_with_no_active_components():
    from repro.thermal.floorplan import Floorplan, FloorplanComponent

    filler_only = Floorplan(
        name="empty",
        width=1e-3,
        height=1e-3,
        components=[
            FloorplanComponent(name="fill0", x=0.0, y=0.0,
                               width=1e-3, height=1e-3)
        ],
    )
    with pytest.raises(ValueError, match="no active components to monitor"):
        EmulationFramework(
            platform=None,
            floorplan=filler_only,
            workload=ProfiledWorkload(profile(), total_iterations=10**6),
            config=FrameworkConfig(spreader_resolution=(2, 2)),
        )


def test_launch_rejects_unknown_monitored_names():
    with pytest.raises(ValueError, match="arm11_9"):
        make_framework(monitored_components=("arm11_0", "arm11_9"))


def test_config_rejects_nonpositive_physical_frequency():
    with pytest.raises(ValueError, match="physical board frequency"):
        FrameworkConfig(physical_hz=0.0)
    with pytest.raises(ValueError, match="physical board frequency"):
        FrameworkConfig(physical_hz=-100 * MHZ)


def test_config_rejects_nonpositive_initial_temperature():
    with pytest.raises(ValueError, match="initial temperature"):
        FrameworkConfig(initial_temperature_kelvin=0.0)
    with pytest.raises(ValueError, match="initial temperature"):
        FrameworkConfig(initial_temperature_kelvin=-273.0)
    # None (ambient) and any positive kelvin remain valid.
    assert FrameworkConfig().initial_temperature_kelvin is None
    assert FrameworkConfig(initial_temperature_kelvin=345.0)


def test_config_rejects_unknown_solver_backend():
    with pytest.raises(ValueError, match="unknown solver backend"):
        FrameworkConfig(solver_backend="warp_drive")
    with pytest.raises(ValueError, match="'name' entry"):
        FrameworkConfig(solver_backend={"params": {}})
    with pytest.raises(ValueError, match="solver_backend"):
        FrameworkConfig(solver_backend=42)
    # Live backend instances are not plain data: the config must stay
    # JSON-round-trippable and per-framework (pass instances to
    # ThermalSolver directly instead).
    from repro.thermal.backends import CachedLU

    with pytest.raises(ValueError, match="registered name"):
        FrameworkConfig(solver_backend=CachedLU())
    # Malformed dict shapes and bad params fail at config time too, not
    # when the framework is wired (possibly in a worker process).
    with pytest.raises(ValueError, match="unknown solver-backend keys"):
        FrameworkConfig(solver_backend={"name": "cached_lu", "junk": 1})
    with pytest.raises(TypeError):
        FrameworkConfig(
            solver_backend={"name": "cached_lu", "params": {"bogus": 1}}
        )
    with pytest.raises(ValueError, match="tolerance"):
        FrameworkConfig(
            solver_backend={
                "name": "cached_lu",
                "params": {"refactor_tolerance_kelvin": 0.0},
            }
        )


def test_config_solver_backend_round_trips_and_wires_solver():
    import json

    from repro.thermal.backends import CachedLU

    config = FrameworkConfig(
        solver_backend={
            "name": "cached_lu",
            "params": {"refactor_tolerance_kelvin": 0.5},
        }
    )
    rebuilt = FrameworkConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    framework = make_framework(solver_backend="cached_lu")
    assert isinstance(framework.solver.backend, CachedLU)
    sample = framework.step_window()
    assert sample.max_temp_k > 0
    assert framework.solver.backend.factorizations == 1


def test_config_normalizes_sequences_to_tuples():
    config = FrameworkConfig(
        monitored_components=["arm11_0", "arm11_1"],
        spreader_resolution=[2, 2],
    )
    assert config.monitored_components == ("arm11_0", "arm11_1")
    assert config.spreader_resolution == (2, 2)
    assert FrameworkConfig().monitored_components is None


def test_config_dict_round_trip():
    import json

    config = FrameworkConfig(
        virtual_hz=500 * MHZ,
        monitored_components=("arm11_0",),
        spreader_resolution=(2, 2),
    )
    rebuilt = FrameworkConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    # Partial dicts keep defaults for everything unspecified.
    assert FrameworkConfig.from_dict({"virtual_hz": 5e8}).grid_mode == "component"


def test_report_before_any_window():
    framework = make_framework()
    report = framework.report()
    assert report.windows == 0
    assert report.emulated_seconds == 0.0
    # NaN, not 0.0 K: a zero-window run has no temperature to report and
    # the old 0.0 sentinel read as a real (absurd) value downstream.
    assert math.isnan(report.peak_temperature_k)
    assert math.isnan(report.final_temperature_k)
    assert "n/a" in report.summary()
    assert not report.workload_done


def test_sample_fields_consistent():
    framework = make_framework()
    sample = framework.step_window()
    assert sample.time_s == pytest.approx(framework.config.sampling_period_s)
    assert sample.frequency_hz == 500 * MHZ
    assert sample.total_power_w == pytest.approx(
        sum(
            framework.power_model.power_map(
                framework.workload.advance(0), frequency_hz=500 * MHZ
            ).values()
        ),
        abs=10.0,
    )
    assert sample.max_temp_k >= 300.0


def test_board_time_tracks_stretch():
    framework = make_framework()
    for _ in range(10):
        framework.step_window()
    report = framework.report()
    # 500 MHz on a 100 MHz board: 5x stretch (no congestion freezes here).
    assert report.fpga_real_seconds == pytest.approx(
        5 * report.emulated_seconds, rel=1e-6
    )


# -- zero-progress stall detection -------------------------------------------


def stalled_framework(virtual_hz=10.0):
    """A framework whose 10 ms windows round to zero virtual cycles."""
    return EmulationFramework(
        platform=None,
        floorplan=floorplan_4xarm11(),
        workload=ProfiledWorkload(profile(), total_iterations=10**8),
        policy=NoManagementPolicy(),
        config=FrameworkConfig(
            virtual_hz=virtual_hz, spreader_resolution=(2, 2)
        ),
    )


def test_low_frequency_run_stalls_instead_of_spinning():
    # Regression: Vpcm.window_cycles rounds a 10 ms window at a very low
    # DFS operating point to 0 cycles, so the workload never progresses
    # while bounds_reached only consulted workload.done — an unbounded
    # run() under a never-cooling low-frequency policy spun forever.
    framework = stalled_framework()
    assert framework.vpcm.window_cycles(0.01) == 0
    report = framework.run(max_stall_windows=5)
    assert framework.windows == 5
    assert framework.stall_windows == 5
    assert report.stalled
    assert not report.workload_done
    assert "STALLED" in report.summary()
    # Emulated time still advanced — only *progress* stalled.
    assert report.emulated_seconds == pytest.approx(0.05)


def test_stall_counter_resets_when_progress_resumes():
    framework = stalled_framework()
    framework.run(max_stall_windows=3)
    assert framework.stall_windows == 3
    framework.vpcm.set_frequency(500 * MHZ, reason="test")
    framework.run(max_windows=5)
    assert framework.stall_windows == 0
    assert not framework.stalled
    assert not framework.report().stalled


def test_progressing_run_never_reports_stalled():
    framework = make_framework()
    report = framework.run(max_windows=10, max_stall_windows=2)
    assert framework.stall_windows == 0
    assert not report.stalled


def test_stalled_flag_round_trips_run_report():
    import json

    from repro.core.framework import RunReport

    framework = stalled_framework()
    report = framework.run(max_stall_windows=2)
    rebuilt = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert rebuilt.stalled


def test_truncated_run_in_gated_pause_is_not_stalled():
    # A zero-progress streak cut off by an ordinary time/window bound is
    # a normal clock-gated cooling pause, not a stall: only tripping the
    # explicit stall bound sets the flag (the raw streak length stays
    # observable as stall_windows).
    framework = stalled_framework()
    report = framework.run(max_windows=5)
    assert framework.stall_windows == 5
    assert not report.stalled
    assert "STALLED" not in report.summary()
