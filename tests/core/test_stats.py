"""Statistics helpers and thermal-trace tests."""

import math

import pytest

from repro.core.stats import ThermalTrace, TraceSample, diff_stats, flatten_numeric


def test_diff_stats_numeric():
    new = {"a": 10, "b": {"c": 5.5, "d": 2}}
    old = {"a": 4, "b": {"c": 0.5}}
    assert diff_stats(new, old) == {"a": 6, "b": {"c": 5.0, "d": 2}}


def test_diff_stats_missing_old_counts_from_zero():
    assert diff_stats({"x": 3}, {}) == {"x": 3}
    assert diff_stats({"x": 3}, None) == {"x": 3}


def test_diff_stats_preserves_non_numeric():
    new = {"name": "bus", "n": 2, "flags": [1, 2]}
    out = diff_stats(new, {"name": "bus", "n": 1})
    assert out["name"] == "bus"
    assert out["flags"] == [1, 2]
    assert out["n"] == 1


def test_diff_stats_bools_copied_not_diffed():
    assert diff_stats({"on": True}, {"on": True})["on"] is True


def test_flatten_numeric():
    flat = flatten_numeric({"a": {"b": 1, "c": {"d": 2.5}}, "e": 3, "s": "x"})
    assert flat == {"a.b": 1, "a.c.d": 2.5, "e": 3}


def make_trace(freqs=(500e6, 500e6, 100e6, 100e6), temps=(310, 350, 345, 339),
               events=None):
    trace = ThermalTrace()
    events = events or {}
    for index, (f, t) in enumerate(zip(freqs, temps)):
        trace.append(
            TraceSample(
                time_s=0.01 * (index + 1),
                frequency_hz=f,
                total_power_w=5.0,
                max_temp_k=float(t),
                component_temps={"core0": float(t) - 1.0},
                events=events.get(index, ()),
            )
        )
    return trace


def test_trace_accessors():
    trace = make_trace()
    assert len(trace) == 4
    assert trace.peak_temperature() == 350.0
    assert trace.final_temperature() == 339.0
    assert trace.times() == pytest.approx([0.01, 0.02, 0.03, 0.04])
    assert trace.series("core0")[0] == pytest.approx(309.0)
    assert math.isnan(trace.series("missing")[0])


def test_duty_cycle():
    trace = make_trace()
    assert trace.duty_cycle(100e6) == pytest.approx(0.5)
    assert trace.duty_cycle(500e6) == pytest.approx(0.5)
    assert trace.duty_cycle(250e6) == 0.0
    assert ThermalTrace().duty_cycle(100e6) == 0.0


def test_time_above():
    trace = make_trace(temps=(330, 355, 356, 330))
    assert trace.time_above(350.0) == pytest.approx(0.02)


def test_csv_output():
    csv = make_trace().to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "time_s,frequency_hz,total_power_w,max_temp_k,core0"
    assert len(lines) == 5
    assert ThermalTrace().to_csv() == ""


def test_ascii_chart_renders():
    chart = make_trace().ascii_chart(width=20, height=5, title="demo")
    lines = chart.splitlines()
    assert lines[0] == "demo"
    assert any("*" in line for line in lines)
    assert ThermalTrace().ascii_chart() == "(empty trace)"


def test_ascii_chart_flat_trace():
    trace = make_trace(temps=(320, 320, 320, 320))
    assert "*" in trace.ascii_chart(width=10, height=3)


def test_empty_trace_temperatures_are_nan_not_zero_kelvin():
    """Regression: the 0.0 K sentinel used to flow into
    RunReport.peak_temperature_k and read as a real temperature."""
    trace = ThermalTrace()
    assert math.isnan(trace.peak_temperature())
    assert math.isnan(trace.final_temperature())
    digest = trace.digest()
    assert digest["samples"] == 0
    assert digest["peak_temperature_k"] is None  # NaN is not JSON
    assert digest["final_temperature_k"] is None


def test_sample_round_trip_is_lossless():
    sample = TraceSample(
        time_s=0.02,
        frequency_hz=5e8,
        total_power_w=4.25,
        max_temp_k=351.5,
        component_temps={"core0": 350.5, "mem": 320.0},
        events=(("core0", "over-upper"),),
    )
    back = TraceSample.from_dict(sample.to_dict())
    assert back == sample
    assert isinstance(back.events, tuple)
    assert isinstance(back.events[0], tuple)


def test_sample_to_dict_is_json_compatible():
    import json

    sample = TraceSample(
        time_s=0.01, frequency_hz=1e8, total_power_w=1.0, max_temp_k=300.0,
        events=(("c", "under-lower"),),
    )
    encoded = json.dumps(sample.to_dict())
    assert TraceSample.from_dict(json.loads(encoded)) == sample


def test_trace_round_trip_preserves_every_sample():
    trace = make_trace(events={1: (("core0", "over-upper"),)})
    assert trace.samples[1].events == (("core0", "over-upper"),)
    back = ThermalTrace.from_dict(trace.to_dict())
    assert back.samples == trace.samples
    assert back.digest() == trace.digest()
    assert ThermalTrace.from_dict(ThermalTrace().to_dict()).samples == []
