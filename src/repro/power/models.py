"""Activity-based run-time power estimation (Section 5.1).

Every sampling window, the framework snapshots the platform statistics,
turns the per-component deltas into utilizations in ``[0, 1]`` and then
into watts through the Table 1 library; the resulting per-floorplan-cell
power map is what flows to the thermal simulator over the Ethernet link.

Utilization definitions (per window of ``W`` virtual cycles):

* cores — ``(active + 0.4 * stalled + 0.05 * idle) / W``: a stalled core
  still clocks its pipeline front end; an idle (frozen or halted) core
  only its clock tree.
* caches — accesses / W (one access keeps the arrays busy one cycle).
* memories — words transferred x latency / W (array busy time).
* NoC switches — flits routed / (W x radix): a switch at full tilt moves
  one flit per port per cycle.
* bus (when the floorplan has a bus region) — busy cycles / W.
"""

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.power.library import DEFAULT_LIBRARY
from repro.util.registry import Registry
from repro.util.units import MHZ

ACTIVE_WEIGHT = 1.0
STALL_WEIGHT = 0.4
IDLE_WEIGHT = 0.05


def _clamp01(value):
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


# -- technology nodes: voltage/frequency operating points ----------------------
#
# The paper's DFS policy scales frequency at a fixed supply voltage, so
# :meth:`repro.power.library.PowerClass.power_at` is linear in f.  Real
# DVFS ladders (the Lumos-style models in PAPERS.md) drop the supply
# voltage together with the clock, so dynamic power falls as f * V(f)^2.
# A :class:`TechNode` carries that V(f) table; when a
# :class:`PowerModel` is built with one, every component power is
# additionally scaled by ``(V(f) / V_nominal)^2``.  With no tech node
# (the default) behaviour is bit-for-bit the legacy fixed-voltage model.


@dataclass(frozen=True)
class OperatingPoint:
    """One (frequency, supply voltage) point of a DVFS ladder."""

    frequency_hz: float
    voltage_v: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError(f"operating point frequency must be positive, "
                             f"got {self.frequency_hz}")
        if self.voltage_v <= 0:
            raise ValueError(f"operating point voltage must be positive, "
                             f"got {self.voltage_v}")

    def to_dict(self):
        return {"frequency_hz": self.frequency_hz, "voltage_v": self.voltage_v}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass(frozen=True)
class TechNode:
    """A technology node's DVFS ladder: V(f) by piecewise-linear
    interpolation over its :class:`OperatingPoint` table.

    ``voltage_scale(f)`` is the factor ``(V(f) / V_nominal)^2`` that the
    power model multiplies into every component's dynamic power;
    frequencies outside the table clamp to the end points (a clock
    slower than the lowest ladder step cannot drop the supply further).
    """

    name: str
    nominal_voltage_v: float
    points: tuple  # OperatingPoints, ascending in frequency
    description: str = ""

    def __post_init__(self):
        if self.nominal_voltage_v <= 0:
            raise ValueError(f"{self.name}: nominal voltage must be positive")
        points = tuple(
            OperatingPoint.from_dict(p) if isinstance(p, dict) else p
            for p in self.points
        )
        if not points:
            raise ValueError(f"{self.name}: a tech node needs operating points")
        freqs = [p.frequency_hz for p in points]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError(
                f"{self.name}: operating points must strictly ascend in "
                f"frequency, got {freqs}"
            )
        object.__setattr__(self, "points", points)

    def frequencies(self):
        """The ladder's frequency steps, ascending (policy step tables)."""
        return tuple(p.frequency_hz for p in self.points)

    def voltage_at(self, frequency_hz):
        """Supply voltage for a clock, piecewise-linear with end clamps."""
        if frequency_hz <= 0:
            raise ValueError(f"{self.name}: frequency must be positive, "
                             f"got {frequency_hz}")
        points = self.points
        if frequency_hz <= points[0].frequency_hz:
            return points[0].voltage_v
        if frequency_hz >= points[-1].frequency_hz:
            return points[-1].voltage_v
        for lo, hi in zip(points, points[1:]):
            if frequency_hz <= hi.frequency_hz:
                span = hi.frequency_hz - lo.frequency_hz
                frac = (frequency_hz - lo.frequency_hz) / span
                return lo.voltage_v + frac * (hi.voltage_v - lo.voltage_v)
        raise AssertionError("unreachable")  # pragma: no cover

    def voltage_scale(self, frequency_hz):
        """Dynamic-power voltage factor ``(V(f) / V_nominal)^2``."""
        return (self.voltage_at(frequency_hz) / self.nominal_voltage_v) ** 2

    def to_dict(self):
        return {
            "name": self.name,
            "nominal_voltage_v": self.nominal_voltage_v,
            "points": [p.to_dict() for p in self.points],
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


TECH_NODES = Registry("tech node")


def _ladder(*steps):
    return tuple(OperatingPoint(f * MHZ, v) for f, v in steps)


@TECH_NODES.register("130nm")
def _tech_130nm():
    """The paper's node (Table 1 is 130 nm bulk CMOS)."""
    return TechNode(
        name="130nm",
        nominal_voltage_v=1.2,
        points=_ladder((50, 0.85), (100, 0.95), (200, 1.05),
                       (400, 1.15), (600, 1.2)),
        description="130 nm bulk CMOS (Table 1's node)",
    )


@TECH_NODES.register("90nm")
def _tech_90nm():
    return TechNode(
        name="90nm",
        nominal_voltage_v=1.1,
        points=_ladder((50, 0.75), (100, 0.85), (200, 0.95),
                       (400, 1.05), (600, 1.1)),
        description="90 nm bulk CMOS shrink",
    )


@TECH_NODES.register("65nm")
def _tech_65nm():
    return TechNode(
        name="65nm",
        nominal_voltage_v=1.0,
        points=_ladder((50, 0.7), (100, 0.8), (200, 0.9),
                       (400, 0.95), (600, 1.0)),
        description="65 nm bulk CMOS shrink",
    )


def make_tech_node(spec=None):
    """Resolve a tech-node spec to a :class:`TechNode` (or ``None``).

    ``spec`` may be ``None`` (fixed-voltage legacy model), a registered
    :data:`TECH_NODES` name, a full ``TechNode.to_dict()`` dict (the
    JSON form that rides inside
    :class:`repro.core.framework.FrameworkConfig`), or an already
    constructed :class:`TechNode`.
    """
    if spec is None:
        return None
    if isinstance(spec, TechNode):
        return spec
    if isinstance(spec, str):
        return TECH_NODES.get(spec)()
    if isinstance(spec, dict):
        if "name" not in spec:
            raise ValueError("a tech-node dict needs a 'name' entry")
        if "points" in spec:
            return TechNode.from_dict(spec)
        unknown = set(spec) - {"name"}
        if unknown:
            raise ValueError(
                f"unknown tech-node keys: {', '.join(sorted(unknown))} "
                f"(pass a registered name or a full TechNode.to_dict())"
            )
        return TECH_NODES.get(spec["name"])()
    raise TypeError(
        f"tech node must be a name, dict or TechNode, got {type(spec).__name__}"
    )


@dataclass
class ActivityVector:
    """Per-activity-source utilizations for one sampling window.

    Keys are the floorplan ``activity_source`` tuples, e.g. ``("core", 0)``
    or ``("noc_switch", "sw2")``; values are utilizations in ``[0, 1]``.
    """

    window_cycles: int
    utilization: dict = field(default_factory=dict)

    def get(self, source):
        return self.utilization.get(source, 0.0)

    def set(self, source, value):
        self.utilization[source] = _clamp01(value)


class PowerModel:
    """Turns platform statistics into per-floorplan-component power.

    With a ``tech_node`` (any :func:`make_tech_node` spec), component
    powers additionally scale with ``(V(f) / V_nominal)^2`` so DVFS
    steps change voltage as well as frequency; without one, voltage is
    fixed (the paper's model).

    Powers are vectors in ``component_names`` order — the floorplan's
    non-filler components, the same fixed order the RC network injects
    and reads out in.  Each component's max power, reference clock,
    activity-source slot and core index are compiled once here, so a
    window's power is one elementwise ``max_power * util * (f / ref_hz)``
    (times the V(f)^2 factor), IEEE-identical to the per-component
    :meth:`~repro.power.library.PowerClass.power_at`.
    """

    def __init__(self, floorplan, library=None, tech_node=None):
        self.floorplan = floorplan
        self.library = library or DEFAULT_LIBRARY
        self.tech_node = make_tech_node(tech_node)
        for comp in floorplan.active_components():
            if comp.power_class not in self.library:
                raise KeyError(
                    f"floorplan {floorplan.name}: component {comp.name} has "
                    f"unknown power class {comp.power_class!r}"
                )
        components = [c for c in floorplan.components if not c.is_filler]
        self.component_names = tuple(c.name for c in components)
        sources = {}  # activity source -> slot, in first-use order
        slots, max_power, ref_hz, core_slots = [], [], [], []
        for k, comp in enumerate(components):
            source = comp.activity_source
            if source is None:  # passive: zero power at any activity
                slots.append(-1)
                max_power.append(0.0)
                ref_hz.append(1.0)
                continue
            cls = self.library[comp.power_class]
            slots.append(sources.setdefault(source, len(sources)))
            max_power.append(cls.max_power)
            ref_hz.append(cls.ref_hz)
            if source[0] == "core":
                core_slots.append((k, source[1]))
        # Passive components read a slot no activity table has a key for.
        self._sources = tuple(sources) + (object(),)
        self._slots = np.array(
            [len(sources) if slot < 0 else slot for slot in slots],
            dtype=np.int64,
        )
        self._max_power = np.array(max_power)
        self._ref_hz = np.array(ref_hz)
        self._core_slots = tuple(core_slots)

    # -- utilization extraction ------------------------------------------------
    def activity_from_stats(self, stats_delta, window_cycles):
        """Build an :class:`ActivityVector` from a platform stats delta.

        ``stats_delta`` has the same structure as ``Platform.stats()``
        (absolute counters differenced per window by the framework).
        """
        activity = ActivityVector(window_cycles)
        if window_cycles <= 0:
            return activity
        w = float(window_cycles)
        for index, (name, core) in enumerate(stats_delta.get("cores", {}).items()):
            busy = (
                ACTIVE_WEIGHT * core.get("active_cycles", 0)
                + STALL_WEIGHT * core.get("stall_cycles", 0)
                + IDLE_WEIGHT * core.get("idle_cycles", 0)
            )
            activity.set(("core", index), busy / w)
        for index, (name, cache) in enumerate(stats_delta.get("icaches", {}).items()):
            activity.set(("icache", index), cache.get("accesses", 0) / w)
        for index, (name, cache) in enumerate(stats_delta.get("dcaches", {}).items()):
            activity.set(("dcache", index), cache.get("accesses", 0) / w)
        for index, (name, mem) in enumerate(
            stats_delta.get("private_mems", {}).items()
        ):
            words = mem.get("reads", 0) + mem.get("writes", 0)
            activity.set(("private_mem", index), words / w)
        shared = stats_delta.get("shared_mem", {})
        shared_words = shared.get("reads", 0) + shared.get("writes", 0)
        activity.set(("shared_mem", None), shared_words / w)
        inter = stats_delta.get("interconnect", {})
        if "switch_flits" in inter:
            for switch, flits in inter["switch_flits"].items():
                # radix 4 is the Figure 4 switch size; per-port-per-cycle cap.
                activity.set(("noc_switch", switch), flits / (w * 4.0))
        if "busy_cycles" in inter:
            activity.set(("bus", None), inter.get("busy_cycles", 0) / w)
        return activity

    # -- power mapping -------------------------------------------------------------
    def component_power(self, activity, frequency_hz=None, core_frequencies=None):
        """Per-component watts as a vector in ``component_names`` order.

        ``frequency_hz`` scales every component (global DFS, the paper's
        policy; ``None`` runs each at its library reference clock);
        ``core_frequencies`` optionally overrides per core index for
        per-core DFS and heterogeneous-platform exploration.  A tech
        node folds its voltage factor into each component at that
        component's own effective clock.
        """
        sources = self._sources
        util = np.fromiter(
            map(activity.utilization.get, sources, repeat(0.0)),
            float, len(sources),
        )[self._slots]
        if not (0.0 <= util.min() and util.max() <= 1.0 + 1e-9):
            self._reject(util)
        f = self._ref_hz if frequency_hz is None else float(frequency_hz)
        if core_frequencies:
            clocks = (self._ref_hz.tolist() if frequency_hz is None
                      else [f] * len(self._ref_hz))
            for k, core in self._core_slots:
                if core in core_frequencies:
                    clocks[k] = core_frequencies[core]
            f = np.array(clocks, dtype=float)
        power = self._max_power * util * (f / self._ref_hz)
        node = self.tech_node
        if node is not None:
            # One V(f)^2 factor per distinct clock.  Scaling a zero power
            # leaves it zero, and a clock <= 0 yields no power to scale,
            # so this matches scaling only the components that draw power.
            clocks = f.tolist() if isinstance(f, np.ndarray) else [f]
            scales = {
                hz: node.voltage_scale(hz) if hz > 0.0 else 1.0
                for hz in dict.fromkeys(clocks)
            }
            if len(clocks) == 1:
                power *= scales[clocks[0]]
            else:
                power *= [scales[hz] for hz in clocks]
        return power

    def _reject(self, util):
        """Raise for the first component whose utilization is outside
        [0, 1], as :meth:`~repro.power.library.PowerClass.power_at` does."""
        components = [c for c in self.floorplan.components if not c.is_filler]
        for comp, value in zip(components, util.tolist()):
            if not 0.0 <= value <= 1.0 + 1e-9:
                name = self.library[comp.power_class].name
                raise ValueError(f"{name}: utilization {value} not in [0,1]")

    def power_map(self, activity, frequency_hz=None, core_frequencies=None):
        """``{component name: watts}`` over every floorplan component
        (filler included, at 0.0) — for reports and design aids."""
        watts = dict(zip(
            self.component_names,
            self.component_power(
                activity, frequency_hz, core_frequencies
            ).tolist(),
        ))
        return {
            comp.name: watts.get(comp.name, 0.0)
            for comp in self.floorplan.components
        }

    def total_power(self, activity, frequency_hz=None, core_frequencies=None):
        return sum(
            self.component_power(activity, frequency_hz, core_frequencies).tolist()
        )

    def peak_power(self, frequency_hz=None):
        """Power with every component at full utilization (sizing aid)."""
        full = ActivityVector(1)
        for comp in self.floorplan.active_components():
            full.set(comp.activity_source, 1.0)
        return self.total_power(full, frequency_hz)
