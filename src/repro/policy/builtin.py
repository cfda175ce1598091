"""The four original run-time thermal-management policies (Section 7).

The paper implements "a simple dual-state machine that monitors at
run-time if the temperature of each MPSoC component increases/decreases
above/below two certain thresholds (350 or 340 degrees Kelvin)"; the
sensors inform the VPCM, which performs dynamic frequency scaling
choosing 500 or 100 MHz accordingly.  That policy is
:class:`DualThresholdDfsPolicy`.  The others are the natural extensions
the paper motivates ("the potential benefits of HW/SW emulation to
explore the design space of complex thermal management policies"):
stop-go clock gating and per-core DFS.  The wider exploration family
lives in :mod:`repro.policy.exploration`.  Both modules register their
policies in :data:`repro.policy.base.POLICIES` where they are defined;
importing this module (which imports the exploration family) fills it.
"""

import copy
import inspect

# Registers the exploration family in POLICIES beside the policies below.
import repro.policy.exploration  # noqa: F401
from repro.policy.base import POLICIES, ThermalPolicy, require_sensors
from repro.util.units import MHZ


@POLICIES.register("none")
class NoManagementPolicy(ThermalPolicy):
    """The un-managed baseline of Figure 6: clocks never change."""

    name = "none"

    def react(self, sensor_bank, vpcm, time_s):
        return vpcm.virtual_hz


@POLICIES.register("dual_threshold")
class DualThresholdDfsPolicy(ThermalPolicy):
    """The paper's policy: any component hot -> low clock; all cool -> high.

    Sensor hysteresis (latched between the two thresholds) lives in
    :class:`repro.thermal.sensors.TemperatureSensor`; this state machine
    only maps "any sensor hot" onto the two DFS operating points.
    """

    name = "dual-threshold-dfs"

    def __init__(self, high_hz=500 * MHZ, low_hz=100 * MHZ):
        if low_hz >= high_hz:
            raise ValueError("low frequency must be below high frequency")
        self.high_hz = high_hz
        self.low_hz = low_hz
        self.switches = 0

    def react(self, sensor_bank, vpcm, time_s):
        target = self.low_hz if sensor_bank.any_hot else self.high_hz
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
            self.switches += 1
        return target

    def report(self):
        return {"name": self.name, "switches": self.switches}


@POLICIES.register("stop_go")
class StopGoPolicy(ThermalPolicy):
    """Clock gating instead of scaling: hot -> clocks stopped entirely.

    The VPCM's ability to transparently stop/resume the virtual clock of
    all components (Section 4.2) makes this a one-line policy.
    """

    name = "stop-go"

    def __init__(self, run_hz=500 * MHZ):
        self.run_hz = run_hz
        self.switches = 0

    def react(self, sensor_bank, vpcm, time_s):
        target = 0.0 if sensor_bank.any_hot else self.run_hz
        if target != vpcm.virtual_hz:
            vpcm.set_frequency(target, time_s, reason=self.name)
            self.switches += 1
        return target

    def report(self):
        return {"name": self.name, "switches": self.switches}


@POLICIES.register("per_core")
class PerCoreDfsPolicy(ThermalPolicy):
    """Per-core DFS: only the cores whose own sensor latched hot slow down.

    The platform's single system clock domain still runs at the high
    frequency; the per-core overrides reach the power model through
    :meth:`core_frequencies` (and, in profiled runs, scale each core's
    activity contribution).  Sensors must be named after the floorplan
    core components (e.g. ``arm11_0``) — :meth:`bind` verifies every
    mapped component actually has a sensor and aborts the launch with
    the missing names otherwise.
    """

    name = "per-core-dfs"

    def __init__(self, core_components, high_hz=500 * MHZ, low_hz=100 * MHZ):
        if low_hz >= high_hz:
            raise ValueError("low frequency must be below high frequency")
        self.high_hz = high_hz
        self.low_hz = low_hz
        # component name -> core index
        self.core_components = dict(core_components)
        self._frequencies = {i: high_hz for i in self.core_components.values()}
        self.switches = 0

    def bind(self, framework):
        require_sensors(self, self.core_components, framework.sensors)
        return self

    def react(self, sensor_bank, vpcm, time_s):
        for component, core_index in self.core_components.items():
            sensor = sensor_bank.sensors.get(component)
            if sensor is None:
                # Unbound (direct) use tolerates partial banks; bound
                # runs validated coverage up front in :meth:`bind`.
                continue
            target = self.low_hz if sensor.hot else self.high_hz
            if self._frequencies[core_index] != target:
                self._frequencies[core_index] = target
                self.switches += 1
        # The shared fabric keeps the high clock under this policy.
        return vpcm.virtual_hz

    def core_frequencies(self):
        return dict(self._frequencies)

    def report(self):
        throttled = sum(
            1 for hz in self._frequencies.values() if hz < self.high_hz
        )
        return {
            "name": self.name,
            "switches": self.switches,
            "cores_throttled_at_end": throttled,
        }


#: Ready-to-run example params per built-in, valid on the ``4xarm11``
#: floorplan (the Figure 4b experiment plan).  The round-trip property
#: test, the ``python -m repro policies`` listing and the comparison
#: bench all draw on these instead of re-inventing parameter sets.
EXAMPLE_PARAMS = {
    "none": {},
    "dual_threshold": {"high_hz": 500 * MHZ, "low_hz": 100 * MHZ},
    "stop_go": {"run_hz": 500 * MHZ},
    "per_core": {
        "core_components": {f"arm11_{i}": i for i in range(4)},
        "high_hz": 500 * MHZ,
        "low_hz": 100 * MHZ,
    },
    "dvfs_ladder": {
        "levels_hz": [500 * MHZ, 350 * MHZ, 200 * MHZ, 100 * MHZ],
        "step_down_kelvin": 348.0,
        "step_up_kelvin": 342.0,
    },
    "pid": {"target_kelvin": 345.0, "kp": 60 * MHZ, "ki": 20 * MHZ},
    "predictive": {
        "threshold_kelvin": 350.0,
        "release_kelvin": 342.0,
        "history": 5,
        "lookahead_s": 0.05,
    },
    "per_domain": {
        "core_high_hz": 500 * MHZ,
        "core_low_hz": 100 * MHZ,
        "fabric_high_hz": 500 * MHZ,
        "fabric_low_hz": 100 * MHZ,
    },
}


def example_params(name):
    """A copy of the example ``PolicySpec`` params for a built-in name."""
    if name not in EXAMPLE_PARAMS:
        raise ValueError(
            f"no example params for policy {name!r} "
            f"(known: {', '.join(sorted(EXAMPLE_PARAMS))})"
        )
    return copy.deepcopy(EXAMPLE_PARAMS[name])


def describe_policies(registry):
    """Rows of ``(name, parameters, summary)`` for a policy registry.

    ``parameters`` renders the factory signature (defaults included) and
    ``summary`` is the first docstring line — the data behind
    ``python -m repro policies``.
    """
    rows = []
    for name in registry.names():
        factory = registry.get(name)
        doc = (inspect.getdoc(factory) or "").strip().splitlines()
        summary = doc[0] if doc else ""
        try:
            parameters = [
                str(p)
                for p in inspect.signature(factory).parameters.values()
                if p.kind
                not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
                and p.name != "self"
            ]
        except (TypeError, ValueError):
            parameters = []
        rows.append((name, ", ".join(parameters), summary))
    return rows
