"""Pluggable linear-solver backends for the backward-Euler integrator.

The co-emulation loop advances one sampling period per window by solving

    (C/dt + G(T_n)) T_{n+1} = (C/dt) T_n + P + G_amb T_amb

Two strategies for that solve, both behind one :class:`SolverBackend`
interface and resolvable by name through :data:`SOLVER_BACKENDS`:

``sparse_be`` (:class:`SparseBE`)
    The reference: re-assemble ``C/dt + G(T_n)`` and run a fresh sparse
    factorization every step.  Exact semi-implicit behaviour, and the
    baseline every other backend is tested against.

``cached_lu`` (:class:`CachedLU`)
    Factorize ``A = C/dt + G(T_ref)`` once and reuse the LU factors
    across windows.  **Refactorization policy:** the factors are rebuilt
    only when (a) ``dt`` changes, (b) :meth:`~SolverBackend.invalidate`
    is called, or (c) any *non-linear* cell (silicon die) has drifted
    more than ``refactor_tolerance_kelvin`` away from the temperature
    the factors were built at.  For linear stacks (constant-k die, or a
    spreader-dominated regime) this is exact and factorizes exactly
    once; with the paper's non-linear silicon the frozen conductivity
    introduces a bounded error of order ``(4/3) * tol / T`` in the
    silicon conductances — well under 1 % for the default 1 K tolerance.

    :meth:`CachedLU.step_batch` is the multi-right-hand-side path: B
    structurally identical scenarios step together through **one**
    factorization and a single ``solve(n x B)`` call per window, so a
    B-scenario sweep costs one factorization instead of B x windows.
    The shared reference temperature is the batch column mean, refreshed
    under the same drift tolerance.

``batched_lu``
    An alias of ``cached_lu`` (and ``BatchedLU`` of :class:`CachedLU`),
    kept so specs that name it still load.

Both assemble through
:meth:`~repro.thermal.rc_network.RCNetwork.system_matrix`, which writes
the values into the network's prebuilt CSC pattern (one matrix per
backend, refilled in place).  Backends carry ``factorizations`` /
``solves`` counters so benchmarks and tests can assert the reuse
actually happens.
"""

import numpy as np
from scipy.sparse.linalg import splu, spsolve

from repro.util.registry import Registry

SOLVER_BACKENDS = Registry("solver backend")


class SolverBackend:
    """One strategy for the backward-Euler solve, bound to a network.

    Subclasses implement :meth:`step`; :meth:`step_batch` has a generic
    per-column reference implementation that exact backends inherit.
    """

    name = None

    def __init__(self):
        self.network = None
        self.factorizations = 0
        self.solves = 0

    def bind(self, network):
        """Attach to an :class:`repro.thermal.rc_network.RCNetwork`.

        A backend serves exactly one network: rebinding a live backend
        to a different network would silently mix two runs' physics, so
        it raises — construct a fresh backend per solver instead.
        """
        if self.network is not None and self.network is not network:
            raise ValueError(
                f"{type(self).__name__} is already bound to a network; "
                f"construct one backend per solver"
            )
        self.network = network
        self.invalidate()
        return self

    def invalidate(self):
        """Drop any cached factorization (grid or material change)."""

    def step(self, temperatures, dt):
        """Return ``T_{n+1}`` after one implicit step of length ``dt``."""
        raise NotImplementedError

    def step_batch(self, temperatures, dt, rhs):
        """Step an ``(n, B)`` batch of temperature columns at once.

        ``rhs`` holds each column's full source term ``P + G_amb T_amb``
        (the batch shares one network *structure* but not one power
        vector).  The reference implementation solves column by column
        with each column's own ``G(T)`` — exact, but B factorizations.
        """
        out = np.empty_like(temperatures)
        net = self.network
        c_over_dt = net.capacitance / dt
        for col in range(temperatures.shape[1]):
            t = temperatures[:, col]
            a = net.system_matrix(t, c_over_dt)
            self.factorizations += 1
            self.solves += 1
            out[:, col] = spsolve(a, c_over_dt * t + rhs[:, col])
        return out

    def stats(self):
        return {"factorizations": self.factorizations, "solves": self.solves}


@SOLVER_BACKENDS.register("sparse_be")
class SparseBE(SolverBackend):
    """Reference backend: assemble and factorize from scratch each step."""

    name = "sparse_be"

    def __init__(self):
        super().__init__()
        self._matrix = None

    def step(self, temperatures, dt):
        net = self.network
        c_over_dt = net.capacitance / dt
        self._matrix = net.system_matrix(temperatures, c_over_dt, self._matrix)
        b = c_over_dt * temperatures + net.rhs()
        self.factorizations += 1
        self.solves += 1
        return spsolve(self._matrix, b)


@SOLVER_BACKENDS.register("cached_lu")
class CachedLU(SolverBackend):
    """Factorize once, backsolve every window, refactorize on drift.

    ``refactor_tolerance_kelvin`` bounds how far any non-linear (silicon)
    cell may drift from the linearization temperature before the factors
    are rebuilt; see the module docstring for the error analysis.  Bound
    once per *group* of structurally identical networks, the same backend
    co-steps the whole group through :meth:`step_batch`.
    """

    name = "cached_lu"

    def __init__(self, refactor_tolerance_kelvin=1.0):
        super().__init__()
        if refactor_tolerance_kelvin <= 0:
            raise ValueError("refactor tolerance must be positive kelvin")
        self.refactor_tolerance_kelvin = float(refactor_tolerance_kelvin)
        self._matrix = None
        self._nonlinear = None
        self.invalidate()

    def bind(self, network):
        super().bind(network)
        self._nonlinear = network.nonlinear_cells
        return self

    def invalidate(self):
        self._solve = None
        self._dt = None
        self._t_ref = None  # non-linear cells' linearization temperatures
        self._c_over_dt = None

    # -- factorization policy ------------------------------------------------
    def _drifted(self, temperatures):
        """Has any non-linear cell left the tolerance band around T_ref?

        A batch drifts when its *column mean* leaves the band: one matrix
        serves every column, so re-linearizing cannot reduce a persistent
        spread between columns, and chasing individual columns would
        thrash the factorization for no accuracy gain.  The residual
        per-column error is bounded by the column's distance from the
        batch mean.
        """
        cells = self._nonlinear
        if not len(cells):
            return False
        t = temperatures.mean(axis=1) if temperatures.ndim == 2 else temperatures
        drift = np.abs(t[cells] - self._t_ref)
        return bool(np.count_nonzero(drift > self.refactor_tolerance_kelvin))

    def _refactor(self, t_ref, dt):
        net = self.network
        self._c_over_dt = net.capacitance / dt
        self._matrix = net.system_matrix(t_ref, self._c_over_dt, self._matrix)
        self._solve = splu(self._matrix).solve
        self._dt = dt
        self._t_ref = np.asarray(t_ref, dtype=float)[self._nonlinear]
        self.factorizations += 1

    def _ensure_factors(self, t_ref, temperatures, dt):
        if self._solve is None or dt != self._dt or self._drifted(temperatures):
            self._refactor(t_ref, dt)

    # -- stepping ------------------------------------------------------------
    def step(self, temperatures, dt):
        self._ensure_factors(temperatures, temperatures, dt)
        b = self._c_over_dt * temperatures + self.network.rhs()
        self.solves += 1
        return self._solve(b)

    def step_batch(self, temperatures, dt, rhs):
        """One factorization (linearized at the batch-mean temperature)
        and one multi-column backsolve for every column."""
        reference = temperatures.mean(axis=1)
        self._ensure_factors(reference, temperatures, dt)
        b = self._c_over_dt[:, None] * temperatures + rhs
        self.solves += temperatures.shape[1]
        return self._solve(b)


#: ``batched_lu`` names CachedLU, whose :meth:`~CachedLU.step_batch`
#: serves co-stepped groups; the alias keeps older specs loading.
BatchedLU = CachedLU
SOLVER_BACKENDS.register("batched_lu", CachedLU)


def make_backend(spec=None):
    """Resolve a backend spec to a fresh (unbound) backend instance.

    ``spec`` may be ``None`` (the reference ``sparse_be``), a registered
    name, a ``{"name": ..., "params": {...}}`` dict (the JSON form that
    rides inside :class:`repro.core.framework.FrameworkConfig`), or an
    already constructed :class:`SolverBackend`.
    """
    if spec is None:
        spec = "sparse_be"
    if isinstance(spec, SolverBackend):
        return spec
    if isinstance(spec, str):
        return SOLVER_BACKENDS.get(spec)()
    if isinstance(spec, dict):
        if "name" not in spec:
            raise ValueError("a solver-backend dict needs a 'name' entry")
        unknown = set(spec) - {"name", "params"}
        if unknown:
            raise ValueError(
                f"unknown solver-backend keys: {', '.join(sorted(unknown))}"
            )
        return SOLVER_BACKENDS.get(spec["name"])(**spec.get("params", {}))
    raise TypeError(
        f"solver backend must be a name, dict or SolverBackend, "
        f"got {type(spec).__name__}"
    )
