"""The lean window against a method-by-method reference, bit for bit.

A window takes its progress cycles and board seconds from its
:class:`~repro.core.framework.ClockLevel`, built once per DFS level,
and senses and commits its trace row in one pass.  The oracle is the
window as it was written out method by method: ``Vpcm.window_cycles``
and ``Vpcm.window_real_seconds`` every window, ``account_window``
computing the board seconds again, the dispatcher's
``push``/``drain``/``send`` (the reference classes of
``test_dispatcher.py``), a :class:`~repro.core.stats.WindowRow` built
with its sorted transitions and appended through ``put_row`` every
window.  Both sides run the same scenario; VPCM seconds, freezes and
transitions, dispatcher, buffer and link counters, sensor crossings,
the stall streak, every returned row, the trace and the captured power
must agree byte for byte.
"""

import json
import types

import numpy as np
import pytest

from repro.core.stats import WindowRow, put_row
from repro.core.vpcm import FREEZE_ETHERNET
from repro.scenario.presets import PRESETS
from repro.scenario.spec import PolicySpec
from repro.trace.capture import PowerTraceCapture
from repro.util.units import MHZ
from tests.core.test_dispatcher import (
    ReferenceBuffer,
    ReferenceDispatcher,
    ReferenceLink,
)


# -- the method-by-method window, kept as the oracle --------------------------

def reference_emulate(run):
    """Phase 1 with the cycles computed from the VPCM every window."""
    frequency = run.vpcm.virtual_hz
    level = run._clocks(frequency)
    cycles = run.vpcm.window_cycles(run.config.sampling_period_s)
    clocks = level.core_frequencies
    if clocks and frequency > 0:
        mean_hz = sum(clocks.values()) / len(clocks)
        cycles = int(cycles * min(1.0, mean_hz / frequency))
    if cycles <= 0 and not run.workload.done:
        run.stall_windows += 1
    else:
        run.stall_windows = 0
        run._stall_bound_hit = False
    run.stalls.append(run.stall_windows)
    return frequency, run.workload.advance(cycles), level


def reference_dispatch(run):
    """Phase 3 with the board seconds computed from the VPCM."""
    freeze = run.dispatcher.dispatch_window(
        run.sniffer_bank.close_window(),
        run.vpcm.window_real_seconds(run.config.sampling_period_s),
        num_sensors=len(run.sensors.names),
    )
    if freeze > 0:
        run.vpcm.freeze_seconds(freeze, FREEZE_ETHERNET)


def reference_commit(run, frequency, watts, total_power_w, temps, coolest,
                     hottest):
    """Phase 5: account, sense into a row, react, capture, append."""
    run.vpcm.account_window(run.config.sampling_period_s)
    now = run.vpcm.emulated_seconds
    columns = run._sensor_columns
    transitions = run.sensors.update(
        temps if columns is None else temps[columns], now, hottest
    )
    row = WindowRow(now, frequency, total_power_w, hottest,
                    np.ascontiguousarray(temps),
                    tuple(sorted(transitions.items())))
    run.policy.react(run.sensors, run.vpcm, now)
    for capture in run.captures:
        capture.on_window(run, watts)
    trace = run.trace
    rows = len(trace._time)
    trace._temps = put_row(trace._temps, rows, row.temps)
    trace._time.append(row.time_s)
    trace._frequency.append(row.frequency_hz)
    trace._power.append(row.total_power_w)
    trace._max.append(row.max_temp_k)
    if row.events:
        trace._events[rows] = row.events
    if not (run.peak_temp_k >= hottest):
        run.peak_temp_k = hottest
    run.final_temp_k = hottest
    run.windows += 1
    return row


def lean_emulate(run):
    """The framework's own phase 1, with the stall streak noted."""
    result = type(run)._window_emulate(run)
    run.stalls.append(run.stall_windows)
    return result


def method_by_method(framework):
    """Give ``framework`` the reference window and a dispatcher made of
    the reference buffer and link, sized as its own."""
    own = framework.dispatcher
    framework.dispatcher = ReferenceDispatcher(
        link=ReferenceLink(bandwidth_bps=own.link.bandwidth_bps),
        buffer=ReferenceBuffer(capacity_bytes=own.buffer.capacity_bytes),
    )
    framework._window_emulate = types.MethodType(reference_emulate, framework)
    framework._window_dispatch = types.MethodType(reference_dispatch, framework)
    framework._window_commit = types.MethodType(reference_commit, framework)


def run(scenario, reference):
    """Build and run ``scenario`` with a capture attached; returns the
    framework, its capture and every row its windows returned."""
    framework = scenario.build()
    framework.stalls = []
    if reference:
        method_by_method(framework)
    else:
        framework._window_emulate = types.MethodType(lean_emulate, framework)
    capture = framework.attach_capture(PowerTraceCapture())
    rows = []
    while not framework.bounds_reached(*scenario.bounds):
        rows.append(framework.step_window())
    return framework, capture, rows


def facts(framework, capture, rows):
    vpcm, dispatcher = framework.vpcm, framework.dispatcher
    report = framework.report().to_dict()
    report["extras"].pop("timing")
    return {
        "report": json.dumps(report, sort_keys=True),
        "workload": repr((framework.workload.instructions,
                          getattr(framework.workload, "remaining", None))),
        "vpcm": repr((vpcm.emulated_seconds, vpcm.real_seconds, vpcm.freezes,
                      [vars(t) for t in vpcm.transitions])),
        "dispatcher": repr((dispatcher.stats(), vars(dispatcher.buffer),
                            dispatcher.link.bytes_sent,
                            dispatcher.link.frames_sent)),
        "crossings": repr(framework.sensors.crossings()),
        "stalls": framework.stalls,
        "rows": [repr(row[:4] + row[5:]) + row.temps.tobytes().hex()
                 for row in rows],
        "trace": json.dumps(framework.trace.to_dict(), sort_keys=True),
        "peak": repr((framework.peak_temp_k, framework.final_temp_k,
                      framework.windows)),
        "power": capture._power[:capture.windows].tobytes(),
    }


# -- the cases ----------------------------------------------------------------

def dfs():
    """Global DFS under the 350/340 K thresholds."""
    return PRESETS.get("matrix_tm_cached")()


def per_core():
    """Per-core overrides: the big cores of hetero_biglittle switch."""
    scenario = PRESETS.get("hetero_biglittle")()
    scenario.policy = PolicySpec("per_core", {
        "core_components": {"arm11_0": 0, "arm11_1": 1},
        "high_hz": 400 * MHZ, "low_hz": 100 * MHZ,
    })
    scenario.config.sensor_upper_kelvin = 300.5
    scenario.config.sensor_lower_kelvin = 300.4
    return scenario


def stop_go():
    """Clock gating: a hot die stops the clock, windows make no progress."""
    scenario = PRESETS.get("matrix_tm_cached")()
    scenario.policy = PolicySpec("stop_go", {"run_hz": 500 * MHZ})
    scenario.max_stall_windows = None
    return scenario


def congested():
    """A running platform's statistics over a link too slow for them."""
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.config.sampling_period_s = 1e-5
    scenario.config.ethernet_bandwidth_bps = 1e6
    scenario.config.bram_capacity_bytes = 4096
    return scenario


CASES = {"dfs": dfs, "per_core": per_core, "stop_go": stop_go,
         "congested": congested}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_lean_window_matches_the_method_by_method_reference(name):
    framework, capture, rows = run(CASES[name](), reference=False)
    lean = facts(framework, capture, rows)
    reference = facts(*run(CASES[name](), reference=True))
    assert [key for key in reference if lean[key] != reference[key]] == []
    # Each case exercises what it is named for.
    assert capture.windows == len(rows) > 0
    if name == "dfs":
        assert len(framework.vpcm.transitions) > 0
    if name == "per_core":
        assert framework.policy.switches > 0
    if name == "stop_go":
        assert 0.0 in [t.to_hz for t in framework.vpcm.transitions]
        assert max(framework.stalls) > 0
    if name == "congested":
        assert 0 < framework.dispatcher.freeze_events < len(rows)
        assert framework.dispatcher.stats()["bytes_sent"] > 0
