"""Exploration policies beyond the paper's dual-threshold state machine.

Section 7 frames the framework as a vehicle "to explore the design
space of complex thermal management policies"; this module supplies that
design space.  Every policy here is fully parameterized with plain JSON
data (so ``PolicySpec`` round-trips it), validates itself at
construction or :meth:`~repro.policy.base.ThermalPolicy.bind` time, and
exports its decision statistics through
:meth:`~repro.policy.base.ThermalPolicy.report` for the
policy-comparison pipeline (:mod:`repro.policy.comparison`).

* :class:`DvfsLadderPolicy` — N operating points walked one step per
  window, with per-level step-down/step-up thresholds.
* :class:`PidFrequencyPolicy` — a proportional/integral/derivative
  controller tracking a target temperature with a continuous frequency
  command.
* :class:`PredictiveThrottlePolicy` — moving-average slope prediction;
  throttles *before* the threshold is crossed.
* :class:`PerDomainPolicy` — independent dual-threshold gates for the
  core domain (per-core DFS) and the shared fabric (global clock).
"""

from collections import deque

from repro.policy.base import POLICIES, ThermalPolicy, require_sensors
from repro.util.units import MHZ


def _per_level(value, levels, label):
    """Expand a scalar-or-sequence threshold to one value per level."""
    if isinstance(value, (int, float)):
        return [float(value)] * len(levels)
    values = [float(v) for v in value]
    if len(values) != len(levels):
        raise ValueError(
            f"{label} needs one value per level "
            f"({len(levels)}), got {len(values)}"
        )
    return values


@POLICIES.register("dvfs_ladder")
class DvfsLadderPolicy(ThermalPolicy):
    """A multi-level DVFS ladder: N operating points, one step per window.

    ``levels_hz`` lists the operating points from fastest to slowest.
    Each window the hottest sensor reading is compared against the
    *current level's* step-down/step-up thresholds (scalars apply to all
    levels; sequences give each level its own), and the ladder moves at
    most one level — so a heat ramp passes through the intermediate
    operating points instead of slamming between two extremes.
    """

    name = "dvfs-ladder"

    def __init__(
        self,
        levels_hz=(500 * MHZ, 350 * MHZ, 200 * MHZ, 100 * MHZ),
        step_down_kelvin=350.0,
        step_up_kelvin=340.0,
    ):
        self.levels_hz = [float(hz) for hz in levels_hz]
        if len(self.levels_hz) < 2:
            raise ValueError("a DVFS ladder needs at least two levels")
        if any(b >= a for a, b in zip(self.levels_hz, self.levels_hz[1:])):
            raise ValueError("ladder levels must be strictly decreasing")
        if self.levels_hz[-1] <= 0:
            raise ValueError("ladder levels must be positive frequencies")
        self.step_down_kelvin = _per_level(
            step_down_kelvin, self.levels_hz, "step_down_kelvin"
        )
        self.step_up_kelvin = _per_level(
            step_up_kelvin, self.levels_hz, "step_up_kelvin"
        )
        for down, up in zip(self.step_down_kelvin, self.step_up_kelvin):
            if up >= down:
                raise ValueError(
                    f"step-up threshold {up} K must sit below the "
                    f"step-down threshold {down} K"
                )
        self.level = 0
        self.switches = 0
        self._time_at_level = [0.0] * len(self.levels_hz)
        self._last_time = None

    def react(self, sensor_bank, vpcm, time_s):
        if self._last_time is not None:
            self._time_at_level[self.level] += max(0.0, time_s - self._last_time)
        self._last_time = time_s
        hottest = sensor_bank.max_temperature()
        if hottest >= self.step_down_kelvin[self.level] and self.level < len(
            self.levels_hz
        ) - 1:
            self.level += 1
            self.switches += 1
        elif hottest <= self.step_up_kelvin[self.level] and self.level > 0:
            self.level -= 1
            self.switches += 1
        target = self.levels_hz[self.level]
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
        return target

    def report(self):
        return {
            "name": self.name,
            "switches": self.switches,
            "final_level": self.level,
            "time_at_level_s": {
                f"{hz / MHZ:.0f}MHz": seconds
                for hz, seconds in zip(self.levels_hz, self._time_at_level)
            },
        }


@POLICIES.register("pid")
class PidFrequencyPolicy(ThermalPolicy):
    """PID control of the system clock toward a target temperature.

    The frequency command is continuous:
    ``f = clamp(max_hz - kp*e - ki*∫e - kd*de/dt, min_hz, max_hz)`` with
    ``e = T_hottest - target`` in Kelvin and the gains in Hz per Kelvin
    (per second).  The integral is clamped so its authority never
    exceeds the full frequency span (anti-windup).  ``step_hz``
    optionally quantizes the command onto a DFS grid — real VPCMs
    synthesize discrete clocks.
    """

    name = "pid"

    def __init__(
        self,
        target_kelvin=345.0,
        kp=60 * MHZ,
        ki=20 * MHZ,
        kd=0.0,
        min_hz=100 * MHZ,
        max_hz=500 * MHZ,
        step_hz=None,
    ):
        if min_hz <= 0 or max_hz <= min_hz:
            raise ValueError("need 0 < min_hz < max_hz")
        if kp < 0 or ki < 0 or kd < 0:
            raise ValueError("PID gains must be non-negative")
        if step_hz is not None and step_hz <= 0:
            raise ValueError("step_hz must be positive when given")
        self.target_kelvin = target_kelvin
        self.kp, self.ki, self.kd = kp, ki, kd
        self.min_hz, self.max_hz = min_hz, max_hz
        self.step_hz = step_hz
        self.integral_error = 0.0  # K * s
        self.switches = 0
        self.saturated_windows = 0
        self._last_time = None
        self._last_error = None

    def _command(self, error, dt):
        derivative = 0.0
        if dt > 0 and self._last_error is not None:
            derivative = (error - self._last_error) / dt

        def raw_command():
            return (
                self.max_hz
                - self.kp * error
                - self.ki * self.integral_error
                - self.kd * derivative
            )

        raw = raw_command()
        if dt > 0:
            # Conditional integration (anti-windup): while the command is
            # pinned at a rail and the error keeps pushing it further out
            # (cold start at full speed, say), integrating would only
            # store overshoot to pay back later.
            pushing_out = (raw >= self.max_hz and error < 0) or (
                raw <= self.min_hz and error > 0
            )
            if not pushing_out:
                self.integral_error += error * dt
                if self.ki > 0:  # keep integral authority within the span
                    span = (self.max_hz - self.min_hz) / self.ki
                    self.integral_error = max(
                        -span, min(span, self.integral_error)
                    )
                raw = raw_command()
        target = max(self.min_hz, min(self.max_hz, raw))
        if raw != target:
            self.saturated_windows += 1
        if self.step_hz:
            target = round(target / self.step_hz) * self.step_hz
            target = max(self.min_hz, min(self.max_hz, target))
        return target

    def react(self, sensor_bank, vpcm, time_s):
        error = sensor_bank.max_temperature() - self.target_kelvin
        dt = 0.0 if self._last_time is None else max(0.0, time_s - self._last_time)
        target = self._command(error, dt)
        self._last_time = time_s
        self._last_error = error
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
            self.switches += 1
        return target

    def report(self):
        return {
            "name": self.name,
            "target_kelvin": self.target_kelvin,
            "integral_error_ks": self.integral_error,
            "switches": self.switches,
            "saturated_windows": self.saturated_windows,
        }


@POLICIES.register("predictive")
class PredictiveThrottlePolicy(ThermalPolicy):
    """Moving-average predictive throttling: act before the crossing.

    Keeps the last ``history`` hottest-sensor readings, extrapolates the
    mean slope ``lookahead_s`` seconds ahead, and drops to ``low_hz`` as
    soon as the *forecast* reaches ``threshold_kelvin`` — one to several
    windows before a reactive dual-threshold policy would.  It releases
    back to ``high_hz`` once the measured temperature has fallen to
    ``release_kelvin``.
    """

    name = "predictive"

    def __init__(
        self,
        threshold_kelvin=350.0,
        release_kelvin=342.0,
        history=5,
        lookahead_s=0.05,
        high_hz=500 * MHZ,
        low_hz=100 * MHZ,
    ):
        if low_hz >= high_hz:
            raise ValueError("low frequency must be below high frequency")
        if release_kelvin >= threshold_kelvin:
            raise ValueError("release threshold must sit below the throttle one")
        if history < 2:
            raise ValueError("need at least two samples of history")
        if lookahead_s < 0:
            raise ValueError("lookahead must be non-negative")
        self.threshold_kelvin = threshold_kelvin
        self.release_kelvin = release_kelvin
        self.lookahead_s = lookahead_s
        self.high_hz = high_hz
        self.low_hz = low_hz
        self._samples = deque(maxlen=int(history))
        self.throttled = False
        self.switches = 0
        self.preemptive_throttles = 0

    def _forecast(self, hottest, time_s):
        self._samples.append((time_s, hottest))
        (t0, y0), (t1, y1) = self._samples[0], self._samples[-1]
        if t1 <= t0:
            return hottest
        slope = (y1 - y0) / (t1 - t0)  # mean slope over the history window
        return hottest + max(0.0, slope) * self.lookahead_s

    def react(self, sensor_bank, vpcm, time_s):
        hottest = sensor_bank.max_temperature()
        forecast = self._forecast(hottest, time_s)
        if not self.throttled and forecast >= self.threshold_kelvin:
            self.throttled = True
            self.switches += 1
            if hottest < self.threshold_kelvin:
                self.preemptive_throttles += 1
        elif self.throttled and hottest <= self.release_kelvin:
            self.throttled = False
            self.switches += 1
        target = self.low_hz if self.throttled else self.high_hz
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
        return target

    def report(self):
        return {
            "name": self.name,
            "switches": self.switches,
            "preemptive_throttles": self.preemptive_throttles,
        }


@POLICIES.register("per_domain")
class PerDomainPolicy(ThermalPolicy):
    """Independent thermal gates for the core domain and the fabric.

    Cores behave as under :class:`~repro.policy.builtin.PerCoreDfsPolicy`
    (each core's own latched sensor picks ``core_high_hz``/``core_low_hz``
    through :meth:`core_frequencies`); every *other* monitored sensor
    belongs to the fabric domain (caches, memories, NoC switches), and
    any of them latching hot gates the global system clock down to
    ``fabric_low_hz``.  ``core_components`` may be omitted: :meth:`bind`
    derives the map from the floorplan's ``("core", i)`` activity
    sources, so the policy works on any floorplan by name alone.
    """

    name = "per-domain"

    def __init__(
        self,
        core_components=None,
        core_high_hz=500 * MHZ,
        core_low_hz=100 * MHZ,
        fabric_high_hz=500 * MHZ,
        fabric_low_hz=100 * MHZ,
    ):
        if core_low_hz >= core_high_hz:
            raise ValueError("core low frequency must be below core high")
        if fabric_low_hz >= fabric_high_hz:
            raise ValueError("fabric low frequency must be below fabric high")
        self.core_components = (
            None if core_components is None else dict(core_components)
        )
        self.core_high_hz = core_high_hz
        self.core_low_hz = core_low_hz
        self.fabric_high_hz = fabric_high_hz
        self.fabric_low_hz = fabric_low_hz
        self._frequencies = {}
        if self.core_components is not None:
            self._frequencies = {
                i: core_high_hz for i in self.core_components.values()
            }
        self.core_switches = 0
        self.fabric_switches = 0

    def bind(self, framework):
        if self.core_components is None:
            derived = {}
            for comp in framework.floorplan.active_components():
                source = comp.activity_source
                if source and source[0] == "core":
                    derived[comp.name] = source[1]
            if not derived:
                raise ValueError(
                    f"policy {self.name!r}: floorplan "
                    f"{framework.floorplan.name!r} has no core components "
                    f"to manage"
                )
            self.core_components = derived
            self._frequencies = {
                i: self.core_high_hz for i in derived.values()
            }
        require_sensors(self, self.core_components, framework.sensors)
        return self

    def _core_map(self):
        return self.core_components or {}

    def react(self, sensor_bank, vpcm, time_s):
        core_map = self._core_map()
        for component, core_index in core_map.items():
            sensor = sensor_bank.sensors.get(component)
            if sensor is None:
                continue  # unbound direct use; bind() validated coverage
            target = self.core_low_hz if sensor.hot else self.core_high_hz
            if self._frequencies.get(core_index) != target:
                self._frequencies[core_index] = target
                self.core_switches += 1
        fabric_hot = any(
            sensor.hot
            for name, sensor in sensor_bank.sensors.items()
            if name not in core_map
        )
        target = self.fabric_low_hz if fabric_hot else self.fabric_high_hz
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
            self.fabric_switches += 1
        return target

    def core_frequencies(self):
        return dict(self._frequencies) if self._frequencies else None

    def report(self):
        return {
            "name": self.name,
            "core_switches": self.core_switches,
            "fabric_switches": self.fabric_switches,
            "cores_throttled_at_end": sum(
                1 for hz in self._frequencies.values() if hz < self.core_high_hz
            ),
        }
