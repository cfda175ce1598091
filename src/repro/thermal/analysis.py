"""Thermal operating-point analysis.

Design aids built on the steady-state solver, formalizing the questions
the paper's DFS experiment raises: *what temperature does an operating
point settle at*, *can a given DFS low point hold a ceiling at all*, and
*what is the slowest clock that still holds it* — the quantities a
designer sweeps before committing to a policy (Section 7's "explore the
design space of complex thermal management policies").
"""

from dataclasses import dataclass

from repro.power.models import ActivityVector, PowerModel
from repro.thermal.grid import build_grid
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solver import ThermalSolver


@dataclass
class OperatingPoint:
    """Steady-state outcome of one (frequency, activity) pair."""

    frequency_hz: float
    total_power_w: float
    max_temperature_k: float
    component_temperatures: dict

    def holds(self, ceiling_kelvin):
        """True if this operating point stays below the ceiling."""
        return self.max_temperature_k < ceiling_kelvin


class OperatingPointAnalyzer:
    """Steady-state explorer over one floorplan + activity profile."""

    def __init__(self, floorplan, library=None, grid_mode="component",
                 spreader_resolution=(3, 3)):
        self.floorplan = floorplan
        self.power_model = PowerModel(floorplan, library)
        grid = build_grid(
            floorplan, mode=grid_mode, spreader_resolution=spreader_resolution
        )
        self.network = RCNetwork(grid)

    def _activity(self, utilization):
        if isinstance(utilization, ActivityVector):
            return utilization
        activity = ActivityVector(1)
        for comp in self.floorplan.active_components():
            activity.set(comp.activity_source, utilization)
        return activity

    def steady_state(self, frequency_hz, utilization=1.0):
        """Solve the steady state of one operating point.

        ``utilization`` is either a scalar applied to every component or
        a full :class:`ActivityVector` (e.g. a measured workload profile).
        """
        activity = self._activity(utilization)
        watts = self.power_model.component_power(
            activity, frequency_hz=frequency_hz
        )
        self.network.set_power(watts)
        solver = ThermalSolver(self.network)
        solver.steady_state()
        return OperatingPoint(
            frequency_hz=frequency_hz,
            total_power_w=sum(watts.tolist()),
            max_temperature_k=solver.max_temperature(),
            component_temperatures=self.network.as_map(
                solver.component_temperatures()
            ),
        )

    def sweep(self, frequencies, utilization=1.0):
        """Steady states over a list of frequencies (for plots/tables)."""
        return [self.steady_state(f, utilization) for f in frequencies]

    def minimum_holding_frequency(self, ceiling_kelvin, utilization=1.0,
                                  low_hz=1e6, high_hz=2e9, tol_hz=1e6):
        """The highest clock whose steady state stays below the ceiling.

        Binary search over frequency (steady temperature is monotone in
        clock under the linear-in-frequency dynamic power model).
        Returns 0.0 if even ``low_hz`` overheats, ``high_hz`` if the
        ceiling is never reached.
        """
        if ceiling_kelvin <= self.network.properties.ambient:
            raise ValueError("ceiling below ambient is unreachable")
        if self.steady_state(high_hz, utilization).holds(ceiling_kelvin):
            return high_hz
        if not self.steady_state(low_hz, utilization).holds(ceiling_kelvin):
            return 0.0
        lo, hi = low_hz, high_hz
        while hi - lo > tol_hz:
            mid = 0.5 * (lo + hi)
            if self.steady_state(mid, utilization).holds(ceiling_kelvin):
                lo = mid
            else:
                hi = mid
        return lo

    def dfs_low_point_holds(self, low_hz, ceiling_kelvin, utilization=1.0):
        """Can a DFS policy with this low operating point hold the
        ceiling at all?  (The ablation's 250 MHz insight, as an API.)"""
        return self.steady_state(low_hz, utilization).holds(ceiling_kelvin)
