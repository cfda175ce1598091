"""Transient and steady-state solvers for the RC thermal network.

The workhorse is a semi-implicit backward-Euler integrator: conductances
are assembled at the step's starting temperatures (freezing the
non-linear silicon resistances for one step) and the linear system

    (C/dt + G(T_n)) T_{n+1} = (C/dt) T_n + P + G_amb T_amb

is solved by a pluggable :class:`repro.thermal.backends.SolverBackend`.
This is unconditionally stable, so the framework can step exactly one
10 ms sampling period per co-emulation exchange.

Backends trade assembly/factorization work for bounded linearization
error; choose by name (``solver_backend`` in
:class:`repro.core.framework.FrameworkConfig`):

* ``sparse_be`` — the exact reference: re-assemble ``G(T_n)`` and
  factorize every step.
* ``cached_lu`` — factorize once, backsolve every window, and
  **refactorize only when** ``dt`` changes or a non-linear (silicon)
  cell drifts more than ``refactor_tolerance_kelvin`` (default 1 K)
  from the linearization temperature.  Exact for linear stacks; bounded
  error (sub-percent conductance perturbation) for non-linear silicon.
  Its ``step_batch`` serves batched scenario sweeps: B co-stepped runs
  share one factorization per window.  ``batched_lu`` is an alias of
  ``cached_lu``.

An explicit forward-Euler path (with a stability guard) and a Picard
steady-state solver complete the API; the calibration suite in
:mod:`repro.thermal.calibration` validates all three against
closed-form solutions.
"""

import numpy as np
from scipy.sparse.linalg import spsolve

from repro.thermal.backends import (
    SOLVER_BACKENDS,
    BatchedLU,
    CachedLU,
    SolverBackend,
    SparseBE,
    make_backend,
)

__all__ = [
    "SOLVER_BACKENDS",
    "BatchedLU",
    "CachedLU",
    "SolverBackend",
    "SparseBE",
    "ThermalSolver",
    "make_backend",
]


class ThermalSolver:
    """Time integrator bound to one :class:`RCNetwork`.

    ``backend`` picks the backward-Euler strategy: a registered name, a
    ``{"name": ..., "params": ...}`` dict, a
    :class:`~repro.thermal.backends.SolverBackend` instance, or ``None``
    for the exact ``sparse_be`` reference.
    """

    def __init__(self, network, initial_temperature=None, backend=None):
        self.network = network
        t0 = (
            network.properties.ambient
            if initial_temperature is None
            else initial_temperature
        )
        self.temperatures = np.full(network.num_cells, float(t0))
        self.time = 0.0
        self.backend = make_backend(backend).bind(network)

    # -- transient -----------------------------------------------------------
    def step_be(self, dt):
        """One semi-implicit backward-Euler step of length ``dt`` seconds."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.temperatures = self.backend.step(self.temperatures, dt)
        self.time += dt
        return self.temperatures

    def step_fe(self, dt):
        """One explicit forward-Euler step; raises if ``dt`` is unstable."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        net = self.network
        g = net.conductance_matrix(self.temperatures)
        diag = g.diagonal()
        with np.errstate(divide="ignore"):
            dt_max = float(np.min(net.capacitance / np.maximum(diag, 1e-300)))
        if dt > dt_max:
            raise ValueError(
                f"explicit step dt={dt:.3e}s unstable (limit {dt_max:.3e}s); "
                f"use step_be or a smaller dt"
            )
        flux = net.rhs() - g.dot(self.temperatures)
        self.temperatures = self.temperatures + dt * flux / net.capacitance
        self.time += dt
        return self.temperatures

    def run(self, duration, dt, method="be", callback=None):
        """Integrate for ``duration`` seconds in steps of ``dt``.

        ``callback(time, temperatures)`` is invoked after every step.
        Returns the final temperature vector.
        """
        step = self.step_be if method == "be" else self.step_fe
        steps = int(round(duration / dt))
        for _ in range(steps):
            step(dt)
            if callback is not None:
                callback(self.time, self.temperatures)
        return self.temperatures

    # -- steady state ------------------------------------------------------------
    def steady_state(self, tol=1e-6, max_iterations=100):
        """Picard iteration on ``G(T) T = P + G_amb T_amb``.

        Converges in a handful of iterations: the non-linearity is mild
        (k ~ T^-4/3) and the package resistance dominating the stack
        keeps the fixed point strongly attracting.
        """
        net = self.network
        t = self.temperatures.copy()
        for _ in range(max_iterations):
            t_next = spsolve(net.conductance_matrix(t), net.rhs())
            delta = float(np.max(np.abs(t_next - t)))
            t = t_next
            if delta < tol:
                break
        else:
            raise RuntimeError(
                f"steady state did not converge within {max_iterations} iterations"
            )
        self.temperatures = t
        return t

    # -- readout -------------------------------------------------------------------
    def max_temperature(self):
        return float(self.temperatures.max())

    def component_temperature(self, name):
        """Area-weighted mean temperature of a floorplan component."""
        return self.network.component_temperature(name, self.temperatures)

    def component_temperatures(self):
        """All component means in one sparse product (``W @ T``), as a
        vector in ``network.component_names`` order."""
        return self.network.component_temperatures(self.temperatures)

    def reset(self, temperature=None):
        t0 = (
            self.network.properties.ambient if temperature is None else temperature
        )
        self.temperatures = np.full(self.network.num_cells, float(t0))
        self.time = 0.0
        self.backend.invalidate()
