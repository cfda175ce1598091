"""Workload execution models for the co-emulation loop.

Two ways to produce per-window activity:

* :class:`DirectWorkload` — actually run the emulated cores
  (cycle-accurate, instruction by instruction) for every sampling
  window.  This is what the FPGA does, and what we use for short runs,
  tests and examples.
* :class:`ProfiledWorkload` — replay a measured per-iteration activity
  profile.  The paper's thermal drivers are homogeneous kernels (100 K
  identical matrix iterations), so one cycle-accurate iteration
  characterizes the stream; long runs then scale the profile instead of
  interpreting 10^11 instructions (README.md documents this
  substitution).  DFS still slows *progress* naturally: a window at
  100 MHz contains 5x fewer cycles, hence 5x fewer iterations, than one
  at 500 MHz.

Both return each window's utilizations as a vector in the bound
:class:`~repro.power.models.PowerModel`'s source-slot order.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import diff_stats
from repro.emulation.engine import EventDrivenEngine


@dataclass
class ActivityProfile:
    """Steady-state activity signature of one workload iteration."""

    name: str
    cycles_per_iteration: float
    utilization: dict = field(default_factory=dict)
    instructions_per_iteration: float = 0.0

    def __post_init__(self):
        if self.cycles_per_iteration <= 0:
            raise ValueError(f"{self.name}: cycles per iteration must be positive")

    def to_dict(self):
        """JSON-compatible dict.  Utilization keys are activity-source
        tuples (``("core", 0)``), so they serialize as ``[source, value]``
        pairs rather than as dict keys."""
        return {
            "name": self.name,
            "cycles_per_iteration": self.cycles_per_iteration,
            "instructions_per_iteration": self.instructions_per_iteration,
            "utilization": [
                [list(source) if isinstance(source, tuple) else source, value]
                for source, value in self.utilization.items()
            ],
        }

    @classmethod
    def from_dict(cls, data):
        utilization = {}
        for source, value in data.get("utilization", []):
            if isinstance(source, (list, tuple)):
                source = tuple(source)
            utilization[source] = value
        return cls(
            name=data["name"],
            cycles_per_iteration=data["cycles_per_iteration"],
            utilization=utilization,
            instructions_per_iteration=data.get("instructions_per_iteration", 0.0),
        )


class DirectWorkload:
    """Run the platform's cores for real, window by window, on
    ``engine``: an :class:`EventDrivenEngine` unless the emulation
    backend builds another (anything with ``run_window(horizon)`` and
    ``all_halted``)."""

    def __init__(self, platform, power_model, engine=None):
        self.platform = platform
        self.power_model = power_model
        self.engine = EventDrivenEngine(platform) if engine is None else engine
        self._horizon = 0
        self._last_stats = platform.stats()
        self.instructions = 0

    @property
    def done(self):
        return self.engine.all_halted

    def advance(self, window_cycles):
        """Run one window; returns its utilization vector."""
        if window_cycles < 0:
            raise ValueError("negative window")
        self._horizon += window_cycles
        self.instructions += self.engine.run_window(self._horizon)
        stats = self.platform.stats()
        delta = diff_stats(stats, self._last_stats)
        self._last_stats = stats
        return self.power_model.activity_from_stats(delta, window_cycles)


class ProfiledWorkload:
    """Replay a measured :class:`ActivityProfile` for N iterations.

    The framework binds the workload to its power model before the first
    window (:meth:`bind`), which lays the profile's utilizations out as
    one base vector in the model's source-slot order.
    """

    def __init__(self, profile, total_iterations):
        if total_iterations <= 0:
            raise ValueError("need at least one iteration")
        self.profile = profile
        self.total_iterations = float(total_iterations)
        self.remaining = float(total_iterations)
        self.instructions = 0.0
        self._base = None

    def bind(self, power_model):
        """Lay the profile out in ``power_model``'s slot order; returns
        ``self``.  The base vector is unclamped: a window scales it
        first, then clamps."""
        self._base = power_model.utilization_vector(self.profile.utilization)
        self._scaled = (None, None)  # (busy fraction, its utilizations)
        return self

    @property
    def done(self):
        return self.remaining <= 1e-12

    @property
    def completed_iterations(self):
        return self.total_iterations - self.remaining

    def advance(self, window_cycles):
        """One window's utilizations: the base vector scaled by the
        fraction of the window the remaining work keeps busy, clamped
        to ``[0, 1]``.  At the busy fraction of the window before (a
        steady run is busy the whole window) that window's vector is
        returned again, so it is read-only."""
        base = self._base
        if base is None:
            raise RuntimeError(
                f"profile {self.profile.name!r}: bind the workload to a "
                f"power model before advancing it"
            )
        if window_cycles <= 0 or self.done:
            return np.zeros_like(base)
        possible = window_cycles / self.profile.cycles_per_iteration
        executed = min(self.remaining, possible)
        busy_fraction = executed / possible
        self.remaining -= executed
        self.instructions += executed * self.profile.instructions_per_iteration
        fraction, util = self._scaled
        if fraction != busy_fraction:
            util = base * busy_fraction
            np.minimum(np.maximum(util, 0.0, out=util), 1.0, out=util)
            util.flags.writeable = False
            self._scaled = (busy_fraction, util)
        return util


def profile_platform_run(platform, power_model, iterations=1, name="workload",
                         max_instructions=None):
    """Measure an :class:`ActivityProfile` from a cycle-accurate run.

    The platform must have its programs loaded; this runs every core to
    completion, extracts whole-run utilizations and divides the finish
    cycle by ``iterations`` (the number of kernel iterations the loaded
    program performs).  The profile keeps every source the stats report,
    including those ``power_model``'s floorplan has no slot for, so it
    replays on any floorplan.
    """
    engine = EventDrivenEngine(platform)
    before = platform.stats()
    executed, end_cycle = engine.run_to_completion(max_instructions=max_instructions)
    delta = diff_stats(platform.stats(), before)
    return ActivityProfile(
        name=name,
        cycles_per_iteration=end_cycle / iterations,
        utilization=power_model.stats_utilization_map(delta, end_cycle),
        instructions_per_iteration=executed / iterations,
    )
