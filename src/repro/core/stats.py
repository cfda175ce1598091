"""Statistics records, snapshot diffing and the thermal trace.

The framework samples absolute component counters once per window and
works with deltas; :func:`diff_stats` does the recursive numeric diff.
:class:`ThermalTrace` is the recorded output of a co-emulation run — the
data behind Figure 6.
"""

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


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


def put_row(matrix, row, values):
    """Write ``values`` into row ``row`` of ``matrix``, doubling its rows
    first when it is full; returns the matrix that now holds the row."""
    if row == len(matrix):
        grown = np.empty((max(2 * row, 8), matrix.shape[1]))
        grown[:row] = matrix
        matrix = grown
    matrix[row] = values
    return matrix


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


class WindowRow(NamedTuple):
    """One sensed window as the window driver hands it on.

    The scalar fields are the trace's columns; ``temps`` is the window's
    component temperatures as a vector in the network's component order
    and ``events`` its sensor/DFS transitions.  This is what
    ``step_window()`` returns and what :meth:`ThermalTrace.add` stores.
    """

    time_s: float
    frequency_hz: float
    total_power_w: float
    max_temp_k: float
    temps: np.ndarray
    events: tuple


class ThermalTrace:
    """The full temperature/power/frequency history of a run (Figure 6).

    Stored as columns: time, frequency, total power and max temperature
    lists, a ``(rows, components)`` temperature matrix that grows by
    doubling, and the events of the few windows that have any in a
    ``{row: events}`` map.  :attr:`samples`, :meth:`to_dict`,
    :meth:`series` and the other readers build their views from the
    columns; :class:`TraceSample` is the per-window view.
    """

    def __init__(self, samples=(), components=None):
        self.components = None if components is None else tuple(components)
        self._time = []
        self._frequency = []
        self._power = []
        self._max = []
        self._temps = np.empty((0, len(self.components or ())))
        self._events = {}
        for sample in samples:
            self.append(sample)

    def add(self, time_s, frequency_hz, total_power_w, max_temp_k, temps,
            events=()):
        """Append one window; ``temps`` is a vector in ``components``
        order (the fields of a :class:`WindowRow`)."""
        rows = len(self._time)
        if rows < len(self._temps):
            self._temps[rows] = temps
        else:
            self._temps = put_row(self._temps, rows, temps)
        self._time.append(time_s)
        self._frequency.append(frequency_hz)
        self._power.append(total_power_w)
        self._max.append(max_temp_k)
        if events:
            self._events[rows] = events

    def append(self, sample):
        """Append a hand-built :class:`TraceSample`.

        The first sample fixes ``components`` when the trace has none;
        a component a sample lacks reads NaN, one the trace does not
        have raises.
        """
        temps = sample.component_temps
        if self.components is None:
            self.components = tuple(temps)
            self._temps = np.empty((0, len(self.components)))
        unknown = set(temps).difference(self.components)
        if unknown:
            raise ValueError(
                f"trace sample has components {sorted(unknown)} the trace "
                f"does not record"
            )
        self.add(
            sample.time_s, sample.frequency_hz, sample.total_power_w,
            sample.max_temp_k,
            [temps.get(name, float("nan")) for name in self.components],
            tuple(sample.events),
        )

    def __len__(self):
        return len(self._time)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_temps"] = self._temps[: len(self)].copy()  # no spare rows
        return state

    def _rows(self):
        """The stored temperature rows, one list of floats at a time."""
        for row in self._temps[: len(self)]:
            yield row.tolist()

    def _views(self):
        """Each window as a :class:`TraceSample`, one at a time."""
        names = self.components or ()
        events = self._events
        for k, (t, f, p, m, row) in enumerate(zip(
            self._time, self._frequency, self._power, self._max, self._rows()
        )):
            yield TraceSample(
                time_s=t, frequency_hz=f, total_power_w=p, max_temp_k=m,
                component_temps=dict(zip(names, row)),
                events=events.get(k, ()),
            )

    @property
    def samples(self):
        """Every window as a :class:`TraceSample`, built on read."""
        return list(self._views())

    def times(self):
        return list(self._time)

    def max_temps(self):
        return list(self._max)

    def frequencies(self):
        return list(self._frequency)

    def powers(self):
        """Per-window total power (W)."""
        return list(self._power)

    def columns(self, start, stop):
        """Rows ``start:stop`` as float arrays ``(time_s, frequency_hz,
        temps)``, ``temps`` one row per window in ``components`` order."""
        return (
            np.array(self._time[start:stop], dtype=float),
            np.array(self._frequency[start:stop], dtype=float),
            self._temps[: len(self)][start:stop].copy(),
        )

    def series(self, component):
        if self.components is None or component not in self.components:
            return [float("nan")] * len(self)
        column = self.components.index(component)
        return self._temps[: len(self), column].tolist()

    def peak_temperature(self):
        """Highest per-window max temperature, or NaN for an empty trace.

        NaN, not 0.0: the sentinel flows into
        ``RunReport.peak_temperature_k`` where a literal 0.0 K reads as a
        real (absurd) temperature and silently passes ``high=...``
        tolerance checks.  NaN propagates, fails every comparison, and
        renders as ``n/a`` in summaries.
        """
        return max(self._max, default=float("nan"))

    def final_temperature(self):
        """Last window's max temperature, or NaN for an empty trace."""
        return self._max[-1] if self._max else float("nan")

    def duty_cycle(self, frequency_hz):
        """Fraction of samples spent at the given clock frequency."""
        if not self._frequency:
            return 0.0
        hits = sum(1 for f in self._frequency if abs(f - frequency_hz) < 1.0)
        return hits / len(self._frequency)

    def time_above(self, threshold_k):
        """Emulated seconds with max temperature above ``threshold_k``."""
        times = self._time
        total = 0.0
        for k in range(1, len(times)):
            if self._max[k] > threshold_k:
                total += times[k] - times[k - 1]
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
        return {"samples": [sample.to_dict() for sample in self._views()]}

    @classmethod
    def from_dict(cls, data):
        return cls(
            samples=[TraceSample.from_dict(s) for s in data.get("samples", [])]
        )

    def to_csv(self):
        """CSV text: time, frequency, power, max temperature, components."""
        if not self._time:
            return ""
        names = self.components
        order = sorted(range(len(names)), key=names.__getitem__)
        out = io.StringIO()
        header = ["time_s", "frequency_hz", "total_power_w", "max_temp_k"]
        out.write(",".join(header + [names[k] for k in order]) + "\n")
        for t, f, p, m, temps in zip(self._time, self._frequency, self._power,
                                     self._max, self._rows()):
            row = [f"{t:.6f}", f"{f:.0f}", f"{p:.6f}", f"{m:.3f}"]
            row += [f"{temps[k]:.3f}" for k in order]
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def ascii_chart(self, width=72, height=18, title=None):
        """Plot max temperature over time as ASCII (bench output).

        Rows are temperature bins, columns time bins; ``*`` marks the
        trace, so the Figure 6 shape is visible in a terminal.
        """
        if not self._time:
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
