"""A window-driven run leaves no sources on its network.

The window injects each member's watts into the group's right-hand side
and keeps that block itself; the network it injects through holds no
per-run state.  So after a run of windows the run's network is still
every attribute of the cached prototype it was cloned from, and a
``steady_state(sources)`` called by hand solves on the sources it is given:
``network.injection(watts)`` of the last window's captured watts.
"""

from repro.core.framework import run_windows
from repro.core.workload_model import ActivityProfile
from repro.scenario.presets import PRESETS
from repro.thermal import rc_network
from repro.thermal.solver import ThermalSolver
from repro.trace.capture import PowerTraceCapture

WINDOWS = 50
LONG_STEP_S = 1e6


def captured(scenario):
    framework = scenario.build()
    capture = framework.attach_capture(PowerTraceCapture())
    return framework, capture


def last_watts(capture):
    return capture._power[capture.windows - 1]


def check_network_is_its_prototype(framework):
    """Every attribute of the run's network is the cached prototype's
    own object: nothing per run was written there."""
    network = framework.network
    prototype = rc_network._ASSEMBLY_CACHE[network.structure_key]
    assert network is not prototype
    assert vars(network).keys() == vars(prototype).keys()
    for name, value in vars(network).items():
        assert value is vars(prototype)[name], name


def settle(oracle, sources):
    """``sparse_be`` steps so long that ``C/dt`` vanishes, until the
    temperatures stop moving: the fixed point ``G(T) T = P + G_amb
    T_amb`` reached through the backend, not the Picard solve."""
    for _ in range(200):
        previous = oracle.temperatures
        oracle.step_be(LONG_STEP_S, sources)
        if abs(oracle.temperatures - previous).max() < 1e-12:
            return oracle.temperatures
    raise AssertionError("the long-step oracle did not settle")


def check_steady_state_on_the_last_windows_sources(framework, capture):
    watts = last_watts(capture)
    assert watts.sum() > 0
    sources = framework.network.injection(watts)
    oracle = ThermalSolver(framework.network.clone(), backend="sparse_be")
    oracle.temperatures = framework.solver.temperatures.copy()
    expected = settle(oracle, sources)
    settled = framework.solver.steady_state(sources)
    assert expected.max() > framework.network.properties.ambient + 1.0
    assert abs(settled - expected).max() <= 1e-9


def test_a_serial_run_solves_on_the_last_windows_sources():
    framework, capture = captured(PRESETS.get("matrix_tm_cached")())
    for _ in range(WINDOWS):
        framework.step_window()
    check_network_is_its_prototype(framework)
    check_steady_state_on_the_last_windows_sources(framework, capture)


def test_each_co_stepped_member_solves_on_its_own_sources():
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
    powers = [float(last_watts(capture).sum()) for _, capture in runs]
    assert powers[0] > powers[1] > 0
    settled = []
    for framework, capture in runs:
        assert framework.windows == WINDOWS
        check_network_is_its_prototype(framework)
        check_steady_state_on_the_last_windows_sources(framework, capture)
        settled.append(framework.solver.max_temperature())
    assert settled[0] > settled[1]
