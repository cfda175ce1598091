"""A window-driven run's ``RCNetwork.power`` holds the last injection.

The window injects each member's watts into the group's right-hand side
and, whenever it injects again, points each member's ``network.power``
at that member's column of the injected sources.  So after a run of
windows ``total_power()`` reads the last window's watts, and a
``steady_state()`` or ``step_be()`` called by hand solves with them, as
a network given those watts through ``set_power`` does.
"""

import pytest

from repro.core.framework import run_windows
from repro.core.workload_model import ActivityProfile
from repro.scenario.presets import PRESETS
from repro.thermal.solver import ThermalSolver
from repro.trace.capture import PowerTraceCapture

WINDOWS = 50


def captured(scenario):
    framework = scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    return framework, capture


def check_power_is_the_last_windows(framework, capture):
    watts = capture._power[capture.windows - 1]
    assert watts.sum() > 0
    assert framework.network.total_power() == pytest.approx(
        float(watts.sum()), rel=1e-12, abs=0.0
    )
    twin = framework.network.clone()
    twin.set_power(watts)
    oracle = ThermalSolver(twin, backend="sparse_be")
    oracle.temperatures = framework.solver.temperatures.copy()
    expected = oracle.steady_state()
    settled = framework.solver.steady_state()
    assert expected.max() > twin.properties.ambient + 1.0
    assert abs(settled - expected).max() <= 1e-9


def test_a_serial_run_leaves_the_last_windows_power_on_its_network():
    framework, capture = captured(PRESETS.get("matrix_tm_cached")())
    for _ in range(WINDOWS):
        framework.step_window()
    check_power_is_the_last_windows(framework, capture)


def test_each_co_stepped_member_holds_its_own_column():
    busy = PRESETS.get("matrix_tm_cached")()
    idler = PRESETS.get("matrix_tm_cached")()
    params = idler.workload.params
    profile = ActivityProfile.from_dict(params["profile"])
    profile.utilization = {
        source: 0.5 * value for source, value in profile.utilization.items()
    }
    params["profile"] = profile.to_dict()
    runs = [captured(busy), captured(idler)]
    frameworks = [framework for framework, _ in runs]
    run_windows(frameworks, [(None, WINDOWS, None)] * 2, co_step=True)
    powers = [framework.network.total_power() for framework in frameworks]
    assert powers[0] > powers[1] > 0
    for framework, capture in runs:
        assert framework.windows == WINDOWS
        check_power_is_the_last_windows(framework, capture)
