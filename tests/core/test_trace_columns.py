"""The columnar ThermalTrace against the list-of-samples trace it replaced.

``SampleListTrace`` below is the former ``ThermalTrace`` kept test-side
only: one ``TraceSample`` (with its per-component dict) per window.
A live run fills it from the rows ``step_window()`` returns, the way the
old window commit built its samples, and every reader of the columnar
trace must give the same bytes or values.
"""

import io
import json
import math
from dataclasses import dataclass, field

import pytest

from repro.core.stats import ThermalTrace, TraceSample
from repro.scenario.presets import PRESETS
from repro.util.units import MHZ


@dataclass
class SampleListTrace:
    """The former ThermalTrace: a list of TraceSample."""

    samples: list = field(default_factory=list)

    def __len__(self):
        return len(self.samples)

    def series(self, component):
        return [s.component_temps.get(component, float("nan"))
                for s in self.samples]

    def duty_cycle(self, frequency_hz):
        if not self.samples:
            return 0.0
        hits = sum(1 for s in self.samples
                   if abs(s.frequency_hz - frequency_hz) < 1.0)
        return hits / len(self.samples)

    def time_above(self, threshold_k):
        if len(self.samples) < 2:
            return 0.0
        total = 0.0
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.max_temp_k > threshold_k:
                total += cur.time_s - prev.time_s
        return total

    def digest(self):
        peak = max((s.max_temp_k for s in self.samples), default=float("nan"))
        final = self.samples[-1].max_temp_k if self.samples else float("nan")
        return {
            "samples": len(self),
            "peak_temperature_k": None if math.isnan(peak) else peak,
            "final_temperature_k": None if math.isnan(final) else final,
        }

    def to_dict(self):
        return {"samples": [sample.to_dict() for sample in self.samples]}

    def to_csv(self):
        if not self.samples:
            return ""
        components = sorted(self.samples[0].component_temps)
        out = io.StringIO()
        header = ["time_s", "frequency_hz", "total_power_w", "max_temp_k"]
        out.write(",".join(header + components) + "\n")
        for s in self.samples:
            row = [f"{s.time_s:.6f}", f"{s.frequency_hz:.0f}",
                   f"{s.total_power_w:.6f}", f"{s.max_temp_k:.3f}"]
            row += [f"{s.component_temps.get(c, float('nan')):.3f}"
                    for c in components]
            out.write(",".join(row) + "\n")
        return out.getvalue()


def run_with_oracle(scenario, windows):
    """Step a live run, filling the oracle from each window's row."""
    framework = scenario.build()
    oracle = SampleListTrace()
    names = framework.network.component_names
    for _ in range(windows):
        row = framework.step_window()
        oracle.samples.append(TraceSample(
            time_s=row.time_s,
            frequency_hz=row.frequency_hz,
            total_power_w=row.total_power_w,
            max_temp_k=row.max_temp_k,
            component_temps=dict(zip(names, row.temps.tolist())),
            events=row.events,
        ))
    return framework, oracle


def dfs_scenario():
    """matrix_tm_dfs with a DFS band low enough to cross within tens of
    windows, so some windows carry sensor events."""
    scenario = PRESETS.get("matrix_tm_dfs")()
    scenario.config.sampling_period_s = 1e-3
    scenario.config.sensor_upper_kelvin = 301.0
    scenario.config.sensor_lower_kelvin = 300.8
    scenario.config.spreader_resolution = (2, 2)
    return scenario


def assert_same_readers(trace, oracle):
    as_json = json.dumps(trace.to_dict())
    assert as_json == json.dumps(oracle.to_dict())
    assert json.dumps(trace.to_dict(), sort_keys=True) == json.dumps(
        oracle.to_dict(), sort_keys=True)
    back = ThermalTrace.from_dict(json.loads(as_json))
    assert json.dumps(back.to_dict()) == as_json
    assert back.samples == trace.samples == oracle.samples
    assert trace.to_csv() == oracle.to_csv() == back.to_csv()
    assert trace.digest() == oracle.digest() == back.digest()
    assert len(trace) == len(oracle)
    names = trace.components or ()
    for name in (*names, "not_a_component"):
        assert repr(trace.series(name)) == repr(oracle.series(name))
    temps = [s.max_temp_k for s in oracle.samples] or [300.0]
    for threshold in (min(temps) - 1.0, *temps[::7], max(temps) + 1.0):
        assert trace.time_above(threshold) == oracle.time_above(threshold)
    for hz in (100 * MHZ, 250 * MHZ, 500 * MHZ, 0.0):
        assert trace.duty_cycle(hz) == oracle.duty_cycle(hz)
    assert trace.times() == [s.time_s for s in oracle.samples]
    assert trace.frequencies() == [s.frequency_hz for s in oracle.samples]
    assert trace.powers() == [s.total_power_w for s in oracle.samples]
    assert trace.max_temps() == [s.max_temp_k for s in oracle.samples]


def test_live_trace_matches_the_sample_list():
    framework, oracle = run_with_oracle(dfs_scenario(), 150)
    trace = framework.trace
    assert len(trace) == 150
    events = [k for k, s in enumerate(oracle.samples) if s.events]
    assert 1 <= len(events) < len(oracle) // 2  # a few windows only
    assert len({s.frequency_hz for s in oracle.samples}) == 2
    assert_same_readers(trace, oracle)


def test_trace_grows_past_its_first_allocation():
    scenario = PRESETS.get("matrix_tm_unmanaged")()
    scenario.config.spreader_resolution = (2, 2)
    framework, oracle = run_with_oracle(scenario, 300)
    assert_same_readers(framework.trace, oracle)


def test_empty_traces():
    assert_same_readers(ThermalTrace(), SampleListTrace())
    framework = PRESETS.get("matrix_tm_dfs")().build()
    assert_same_readers(framework.trace, SampleListTrace())
    assert ThermalTrace().ascii_chart() == "(empty trace)"


def test_zero_window_run_has_a_nan_peak_and_an_empty_trace():
    scenario = dfs_scenario()
    scenario.max_emulated_seconds = None
    scenario.max_windows = 0
    framework, report = scenario.run()
    assert math.isnan(report.peak_temperature_k)
    assert report.windows == 0
    assert framework.trace.digest() == {
        "samples": 0, "peak_temperature_k": None, "final_temperature_k": None,
    }
    assert_same_readers(framework.trace, SampleListTrace())


def test_hand_built_samples_match_the_sample_list():
    samples = [
        TraceSample(time_s=0.01 * k, frequency_hz=f, total_power_w=1.5 + k,
                    max_temp_k=300.0 + k * k % 7,
                    component_temps={"b": 301.0 + k, "a": 300.5 - k},
                    events=(("a", "over-upper"),) if k == 2 else ())
        for k, f in enumerate([5e8, 5e8, 1e8, 1e8, 5e8])
    ]
    assert_same_readers(ThermalTrace(samples), SampleListTrace(samples))


def test_a_sample_with_an_unknown_component_is_refused():
    trace = ThermalTrace(components=("a",))
    with pytest.raises(ValueError, match="does not record"):
        trace.append(TraceSample(time_s=0.0, frequency_hz=1.0,
                                 total_power_w=0.0, max_temp_k=300.0,
                                 component_temps={"a": 1.0, "b": 2.0}))


def test_a_pickled_trace_keeps_no_spare_rows():
    import pickle

    framework, _ = run_with_oracle(dfs_scenario(), 5)
    trace = framework.trace
    copy = pickle.loads(pickle.dumps(trace))
    assert copy._temps.shape == (5, len(trace.components))
    assert copy.to_dict() == trace.to_dict()
    copy.add(1.0, 1e8, 1.0, 300.0, trace._temps[0])
    assert len(copy) == 6 and len(trace) == 5
