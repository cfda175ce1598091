"""Statistics records, snapshot diffing and the thermal trace.

The framework samples absolute component counters once per window and
works with deltas; :func:`diff_stats` does the recursive numeric diff.
:class:`ThermalTrace` is the recorded output of a co-emulation run — the
data behind Figure 6.
"""

import io
import math
from dataclasses import dataclass, field


def diff_stats(new, old):
    """Recursive numeric difference ``new - old`` over nested dicts.

    Non-numeric leaves are copied from ``new``; keys missing from
    ``old`` diff against zero.
    """
    if isinstance(new, dict):
        out = {}
        for key, value in new.items():
            out[key] = diff_stats(value, old.get(key) if isinstance(old, dict) else None)
        return out
    if isinstance(new, bool) or not isinstance(new, (int, float)):
        return new
    base = old if isinstance(old, (int, float)) and not isinstance(old, bool) else 0
    return new - base


def flatten_numeric(stats, prefix=""):
    """Flatten a nested numeric dict into ``{dotted.key: value}``."""
    flat = {}
    _flatten_into(flat, stats, prefix)
    return flat


def _flatten_into(flat, stats, prefix):
    for key, value in stats.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        kind = type(value)
        if kind is int or kind is float:  # the common leaves, first
            flat[name] = value
        elif isinstance(value, dict):
            _flatten_into(flat, value, name)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = value


@dataclass
class TraceSample:
    """One sampling window of a co-emulation run."""

    time_s: float  # emulated time at the end of the window
    frequency_hz: float
    total_power_w: float
    max_temp_k: float
    component_temps: dict = field(default_factory=dict)
    events: tuple = ()  # sensor/DFS transitions this window

    def to_dict(self):
        """JSON-compatible dict; ``from_dict`` round-trips it losslessly
        (the ``events`` tuple-of-pairs serializes as a list of lists)."""
        return {
            "time_s": self.time_s,
            "frequency_hz": self.frequency_hz,
            "total_power_w": self.total_power_w,
            "max_temp_k": self.max_temp_k,
            "component_temps": dict(self.component_temps),
            "events": [list(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            time_s=data["time_s"],
            frequency_hz=data["frequency_hz"],
            total_power_w=data["total_power_w"],
            max_temp_k=data["max_temp_k"],
            component_temps=dict(data.get("component_temps", {})),
            events=tuple(tuple(event) for event in data.get("events", ())),
        )


@dataclass
class ThermalTrace:
    """The full temperature/power/frequency history of a run (Figure 6)."""

    samples: list = field(default_factory=list)

    def append(self, sample):
        self.samples.append(sample)

    def __len__(self):
        return len(self.samples)

    def times(self):
        return [s.time_s for s in self.samples]

    def max_temps(self):
        return [s.max_temp_k for s in self.samples]

    def frequencies(self):
        return [s.frequency_hz for s in self.samples]

    def series(self, component):
        return [s.component_temps.get(component, float("nan")) for s in self.samples]

    def peak_temperature(self):
        """Highest per-window max temperature, or NaN for an empty trace.

        NaN, not 0.0: the sentinel flows into
        ``RunReport.peak_temperature_k`` where a literal 0.0 K reads as a
        real (absurd) temperature and silently passes ``high=...``
        tolerance checks.  NaN propagates, fails every comparison, and
        renders as ``n/a`` in summaries.
        """
        return max(self.max_temps(), default=float("nan"))

    def final_temperature(self):
        """Last window's max temperature, or NaN for an empty trace."""
        return self.samples[-1].max_temp_k if self.samples else float("nan")

    def duty_cycle(self, frequency_hz):
        """Fraction of samples spent at the given clock frequency."""
        if not self.samples:
            return 0.0
        hits = sum(1 for s in self.samples if abs(s.frequency_hz - frequency_hz) < 1.0)
        return hits / len(self.samples)

    def time_above(self, threshold_k):
        """Emulated seconds with max temperature above ``threshold_k``."""
        if len(self.samples) < 2:
            return 0.0
        total = 0.0
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.max_temp_k > threshold_k:
                total += cur.time_s - prev.time_s
        return total

    def digest(self):
        """A JSON-safe summary of the trace (the full sample list stays
        on the object; use :meth:`to_csv` or :meth:`to_dict` to export
        it).  Empty traces report ``None`` temperatures (NaN is not
        valid JSON)."""
        peak = self.peak_temperature()
        final = self.final_temperature()
        return {
            "samples": len(self),
            "peak_temperature_k": None if math.isnan(peak) else peak,
            "final_temperature_k": None if math.isnan(final) else final,
        }

    def to_dict(self):
        """Lossless JSON-compatible dict of every sample."""
        return {"samples": [sample.to_dict() for sample in self.samples]}

    @classmethod
    def from_dict(cls, data):
        return cls(
            samples=[TraceSample.from_dict(s) for s in data.get("samples", [])]
        )

    def to_csv(self):
        """CSV text: time, frequency, power, max temperature, components."""
        if not self.samples:
            return ""
        components = sorted(self.samples[0].component_temps)
        out = io.StringIO()
        header = ["time_s", "frequency_hz", "total_power_w", "max_temp_k"]
        out.write(",".join(header + components) + "\n")
        for s in self.samples:
            row = [
                f"{s.time_s:.6f}",
                f"{s.frequency_hz:.0f}",
                f"{s.total_power_w:.6f}",
                f"{s.max_temp_k:.3f}",
            ]
            row += [f"{s.component_temps.get(c, float('nan')):.3f}" for c in components]
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def ascii_chart(self, width=72, height=18, title=None):
        """Plot max temperature over time as ASCII (bench output).

        Rows are temperature bins, columns time bins; ``*`` marks the
        trace, so the Figure 6 shape is visible in a terminal.
        """
        if not self.samples:
            return "(empty trace)"
        times = self.times()
        temps = self.max_temps()
        t0, t1 = times[0], times[-1]
        lo, hi = min(temps), max(temps)
        if hi - lo < 1e-9:
            hi = lo + 1.0
        span_t = (t1 - t0) or 1.0
        grid = [[" "] * width for _ in range(height)]
        for t, temp in zip(times, temps):
            col = min(width - 1, int((t - t0) / span_t * (width - 1)))
            row = min(height - 1, int((hi - temp) / (hi - lo) * (height - 1)))
            grid[row][col] = "*"
        lines = []
        if title:
            lines.append(title)
        for index, row in enumerate(grid):
            label = hi - (hi - lo) * index / (height - 1)
            lines.append(f"{label:7.1f}K |" + "".join(row))
        lines.append(" " * 9 + "+" + "-" * width)
        lines.append(f"{'':9}{t0:<10.2f}{'time (s)':^{max(0, width - 20)}}{t1:>10.2f}")
        return "\n".join(lines)
