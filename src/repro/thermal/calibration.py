"""Analytic calibration of the thermal model.

The paper calibrated its RC model "against a 3D-finite element analysis
given by an industrial partner"; we have no such reference, so the model
is validated against closed-form solutions that exercise the same
properties the FEM calibration would (DESIGN.md, substitution table):

* **steady layered wall** — uniform power through the si/cu/package
  stack has a 1-D analytic solution, including the non-linear silicon
  (solved by integrating ``dT/dz = q / k(T)``);
* **lumped transient** — the package resistance (20 K/W) dwarfs the
  internal resistances (~0.1 K/W), so the step response is nearly a
  single exponential with ``tau = R_pkg * C_total``;
* **grid convergence** — refining the grid must converge to the same
  steady answer.
"""

import numpy as np

from repro.thermal.floorplan import Floorplan, FloorplanComponent
from repro.thermal.grid import build_grid
from repro.thermal.properties import (
    ThermalProperties,
    silicon_conductivity,
)
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solver import ThermalSolver


def uniform_floorplan(width=4e-3, height=4e-3, power_class="arm11"):
    """A die fully covered by one heat-producing component."""
    return Floorplan(
        name="uniform",
        width=width,
        height=height,
        components=[
            FloorplanComponent(
                name="block",
                x=0.0,
                y=0.0,
                width=width,
                height=height,
                power_class=power_class,
                activity_source=("core", 0),
            )
        ],
    )


def analytic_layered_wall(power, area, properties=None, nz=2000):
    """Analytic bottom temperature of the 1-D si/cu/package stack.

    With uniform heat flux ``q = power/area`` entering the die bottom and
    leaving through the package, temperature rises from ambient by the
    package drop, the copper drop and the integrated silicon drop
    (``dT/dz = q / k_si(T)``, integrated numerically to honour the
    non-linear conductivity).
    """
    props = properties or ThermalProperties()
    q = power / area
    t_spreader_top = props.ambient + power * props.package_to_air_resistance
    k_cu = props.spreader_material.k(300.0)
    t_si_top = t_spreader_top + q * props.spreader_thickness / k_cu
    # March down through the silicon against the heat flow.
    t = t_si_top
    dz = props.die_thickness / nz
    for _ in range(nz):
        t += q * dz / silicon_conductivity(t)
    return t


def steady_state_error(power=10.0, resolution=(6, 6), properties=None):
    """Compare solver steady state against the layered-wall analytic.

    Returns ``(analytic, simulated, relative_error)`` for the hottest
    (bottom/die) cell temperature.
    """
    props = properties or ThermalProperties()
    plan = uniform_floorplan()
    grid = build_grid(
        plan,
        properties=props,
        mode="uniform",
        die_resolution=resolution,
        spreader_resolution=resolution,
    )
    network = RCNetwork(grid)
    solver = ThermalSolver(network)
    solver.steady_state(network.injection(network.watts_vector({"block": power})))
    simulated = solver.max_temperature()
    analytic = analytic_layered_wall(power, plan.area, props)
    error = abs(simulated - analytic) / (analytic - props.ambient)
    return analytic, simulated, error


def lumped_time_constant(properties=None):
    """tau = R_pkg * C_total for the uniform floorplan (seconds)."""
    props = properties or ThermalProperties()
    plan = uniform_floorplan()
    c_total = plan.area * (
        props.die_thickness * props.die_material.volumetric_heat
        + props.spreader_thickness * props.spreader_material.volumetric_heat
    )
    return props.package_to_air_resistance * c_total


def transient_error(power=10.0, dt=0.05, properties=None):
    """Compare the simulated step response against the lumped exponential.

    Returns the maximum absolute temperature error (K) over one time
    constant, normalized by the steady-state rise.
    """
    props = properties or ThermalProperties()
    plan = uniform_floorplan()
    grid = build_grid(
        plan,
        properties=props,
        mode="uniform",
        die_resolution=(4, 4),
        spreader_resolution=(4, 4),
    )
    network = RCNetwork(grid)
    sources = network.injection(network.watts_vector({"block": power}))
    solver = ThermalSolver(network)
    tau = lumped_time_constant(props)
    rise = power * props.package_to_air_resistance
    worst = 0.0
    steps = int(round(tau / dt))
    for _ in range(steps):
        solver.step_be(dt, sources)
        lumped = props.ambient + rise * (1.0 - np.exp(-solver.time / tau))
        mean_t = float(np.mean(solver.temperatures))
        worst = max(worst, abs(mean_t - lumped) / rise)
    return worst


def convergence_profile(power=10.0, resolutions=((2, 2), (4, 4), (8, 8), (16, 16))):
    """Steady max temperature at increasing grid resolutions.

    Returns ``[(cells, max_temperature)]``; the sequence must flatten as
    the grid refines (checked by the calibration tests).
    """
    profile = []
    plan = uniform_floorplan()
    for resolution in resolutions:
        grid = build_grid(
            plan,
            mode="uniform",
            die_resolution=resolution,
            spreader_resolution=resolution,
        )
        network = RCNetwork(grid)
        solver = ThermalSolver(network)
        solver.steady_state(
            network.injection(network.watts_vector({"block": power}))
        )
        profile.append((grid.num_cells, solver.max_temperature()))
    return profile


def calibration_report(power=10.0):
    """All calibration checks in one dict (used by tests and benches)."""
    analytic, simulated, err_ss = steady_state_error(power)
    err_tr = transient_error(power)
    profile = convergence_profile(power)
    spread = max(t for _, t in profile) - min(t for _, t in profile)
    return {
        "steady_analytic_K": analytic,
        "steady_simulated_K": simulated,
        "steady_relative_error": err_ss,
        "transient_relative_error": err_tr,
        "lumped_tau_s": lumped_time_constant(),
        "convergence_profile": profile,
        "convergence_spread_K": spread,
    }
