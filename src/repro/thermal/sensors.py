"""Temperature sensors bound to floorplan components (Section 4.2).

The emulated MPSoC carries one HW temperature sensor per monitored
component; the SW thermal tool writes the freshly computed temperatures
back over Ethernet, and each sensor raises/clears a signal to the VPCM
when its component crosses the configured thresholds.  The dual-threshold
hysteresis (350 K upper / 340 K lower in the paper's experiment) lives
here; the DFS reaction lives in the policies of :mod:`repro.policy`.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

OVER_UPPER = "over-upper"
UNDER_LOWER = "under-lower"
IN_BAND = "in-band"


@dataclass
class TemperatureSensor:
    """One per-component sensor with dual-threshold hysteresis."""

    component: str
    upper_kelvin: float = 350.0
    lower_kelvin: float = 340.0
    temperature: float = 0.0
    hot: bool = False  # latched: crossed upper, not yet back under lower
    crossings: list = field(default_factory=list)

    def __post_init__(self):
        if self.lower_kelvin >= self.upper_kelvin:
            raise ValueError(
                f"sensor {self.component}: lower threshold must be below upper"
            )

    def update(self, temperature, time=None):
        """Feed a new reading; returns the band classification."""
        self.temperature = float(temperature)
        if not self.hot and temperature >= self.upper_kelvin:
            self.hot = True
            self.crossings.append((time, OVER_UPPER, self.temperature))
            return OVER_UPPER
        if self.hot and temperature <= self.lower_kelvin:
            self.hot = False
            self.crossings.append((time, UNDER_LOWER, self.temperature))
            return UNDER_LOWER
        return IN_BAND


class SensorBank:
    """The set of sensors for one emulated MPSoC.

    The bank's state lives in vectors in ``names`` order — the last
    readings and each latch's next flip — so one window's hysteresis is
    one elementwise comparison.  ``sensors`` exposes the same state as
    per-component :class:`TemperatureSensor` objects, built the first
    time a policy reads them and refreshed on every read after that.
    """

    def __init__(self, components, upper_kelvin=350.0, lower_kelvin=340.0):
        self.names = tuple(dict.fromkeys(components))
        if self.names and lower_kelvin >= upper_kelvin:
            raise ValueError(
                f"sensor {self.names[0]}: lower threshold must be below upper"
            )
        self.upper_kelvin = upper_kelvin
        self.lower_kelvin = lower_kelvin
        count = len(self.names)
        self.temperatures = np.zeros(count)
        # Each latch's next flip as ``sign * t >= edge``: a cold sensor
        # (+1, upper) latches at t >= upper, a hot one (-1, -lower)
        # releases at -t >= -lower, i.e. t <= lower.  Negation is exact,
        # so this is the scalar comparison; both change only on a flip.
        self._sign = np.ones(count)
        self._edge = np.full(count, float(upper_kelvin))
        self._hot = 0  # latched sensors
        self._crossings = {}  # component -> [(time, band, kelvin)]
        self._sensors = None
        self._stale = False  # the sensor objects lag the vectors

    @property
    def sensors(self):
        """``{component: TemperatureSensor}`` reflecting the latest update."""
        if self._sensors is None:
            self._sensors = {
                name: TemperatureSensor(
                    name, self.upper_kelvin, self.lower_kelvin,
                    crossings=self._crossings.setdefault(name, []),
                )
                for name in self.names
            }
            self._stale = True
        if self._stale:
            for sensor, temperature, sign in zip(
                self._sensors.values(),
                self.temperatures.tolist(),
                self._sign.tolist(),
            ):
                sensor.temperature = temperature
                sensor.hot = sign < 0.0
            self._stale = False
        return self._sensors

    def update(self, temperatures, time=None, hottest=None, coolest=None):
        """Feed the sensors; returns ``{component: band}`` for changed ones.

        ``temperatures`` is a vector in ``names`` order, or a
        ``{component: kelvin}`` map that may cover only some sensors
        (unknown names are ignored).  ``hottest`` and ``coolest``, when
        the caller already knows them, bound the readings from above
        and below: with ``hottest`` under the upper threshold no sensor
        can latch, and with no sensor latched or ``coolest`` above the
        lower threshold none can release, so the readings are stored
        without being compared.
        """
        mapping = isinstance(temperatures, Mapping)
        if (hottest is not None and hottest < self.upper_kelvin
                and (not self._hot
                     or coolest is not None and coolest > self.lower_kelvin)
                and not mapping):
            self.temperatures = np.array(temperatures, dtype=float)
            self._stale = True
            return {}
        if mapping:
            slots = [
                k for k, name in enumerate(self.names) if name in temperatures
            ]
            values = np.array(
                [float(temperatures[self.names[k]]) for k in slots]
            )
            changed = self._sign[slots] * values >= self._edge[slots]
            self.temperatures[slots] = values
        else:
            slots = None
            values = np.array(temperatures, dtype=float)
            changed = self._sign * values >= self._edge
            self.temperatures = values
        self._stale = True
        if not np.count_nonzero(changed):
            return {}
        transitions = {}
        for k in np.flatnonzero(changed).tolist():
            slot = k if slots is None else slots[k]
            hot = self._sign[slot] > 0.0  # a cold sensor latches
            self._sign[slot] = -1.0 if hot else 1.0
            self._edge[slot] = -self.lower_kelvin if hot else self.upper_kelvin
            self._hot += 1 if hot else -1
            band = OVER_UPPER if hot else UNDER_LOWER
            name = self.names[slot]
            self._crossings.setdefault(name, []).append(
                (time, band, float(values[k]))
            )
            transitions[name] = band
        return transitions

    @property
    def any_hot(self):
        return self._hot > 0

    def max_temperature(self):
        return float(self.temperatures.max()) if self.names else 0.0

    def crossings(self):
        rows = [
            (time, name, kind, temp)
            for name in self.names
            for time, kind, temp in self._crossings.get(name, ())
        ]
        rows.sort(key=lambda r: (r[0] is None, r[0]))
        return rows
