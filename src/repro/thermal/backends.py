"""Pluggable linear-solver backends for the backward-Euler integrator.

The co-emulation loop advances one sampling period per window by solving

    (C/dt + G(T_n)) T_{n+1} = (C/dt) T_n + P + G_amb T_amb

for a block of temperature columns: every backend's only step is
:meth:`~SolverBackend.step_batch`, which takes the ``(n, B)``
temperatures and each column's source term, so a lone run steps a
one-column batch and a co-stepped group of B runs steps B columns.
Two strategies for that solve, both behind one :class:`SolverBackend`
interface and resolvable by name through :data:`SOLVER_BACKENDS`:

``sparse_be`` (:class:`SparseBE`)
    The reference: re-assemble ``C/dt + G(T_n)`` and run a fresh sparse
    factorization every step, column by column.  Exact semi-implicit
    behaviour, and the baseline every other backend is tested against.

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
    The shared reference temperature is the batch column mean (a lone
    column is its own mean), refreshed under the same drift tolerance.

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

    Subclasses implement :meth:`step_batch`, the only step: a lone run
    steps a one-column batch.
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

    def step_batch(self, temperatures, dt, rhs):
        """Return ``T_{n+1}`` for an ``(n, B)`` batch of temperature
        columns after one implicit step of length ``dt``.

        ``rhs`` holds each column's full source term ``P + G_amb T_amb``
        (the batch shares one network *structure* but not one power
        vector).
        """
        raise NotImplementedError

    def stats(self):
        return {"factorizations": self.factorizations, "solves": self.solves}


@SOLVER_BACKENDS.register("sparse_be")
class SparseBE(SolverBackend):
    """Reference backend: assemble and factorize from scratch each step."""

    name = "sparse_be"

    def __init__(self):
        super().__init__()
        self._matrix = None

    def step_batch(self, temperatures, dt, rhs):
        """Each column with its own ``G(T)``: exact, one factorization
        per column."""
        net = self.network
        c_over_dt = net.capacitance / dt
        out = np.empty_like(temperatures)
        for col in range(temperatures.shape[1]):
            t = temperatures[:, col]
            self._matrix = net.system_matrix(t, c_over_dt, self._matrix)
            self.factorizations += 1
            self.solves += 1
            out[:, col] = spsolve(self._matrix, c_over_dt * t + rhs[:, col])
        return out


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
        # The non-linear cells are the die cells, which come first.
        self._nonlinear = slice(0, len(network.nonlinear_cells))
        return self

    def invalidate(self):
        self._solve = None
        self._dt = None
        self._t_ref = None  # non-linear cells' linearization temperatures
        self._c_column = None

    # -- factorization policy ------------------------------------------------
    def _drifted(self, reference):
        """Has any non-linear cell of ``reference`` left the tolerance
        band around T_ref, ``|t - T_ref| > tol``?

        For a batch, ``reference`` is the *column mean*: one matrix
        serves every column, so re-linearizing cannot reduce a persistent
        spread between columns, and chasing individual columns would
        thrash the factorization for no accuracy gain.  The residual
        per-column error is bounded by the column's distance from the
        batch mean.  A NaN cell counts as not drifted, since NaN is never
        above the tolerance.
        """
        drift = reference[self._nonlinear] - self._t_ref
        np.abs(drift, out=drift)
        return np.count_nonzero(drift > self.refactor_tolerance_kelvin) > 0

    def _refactor(self, t_ref, dt):
        net = self.network
        c_over_dt = net.capacitance / dt
        self._c_column = c_over_dt[:, None]
        self._matrix = net.system_matrix(t_ref, c_over_dt, self._matrix)
        self._solve = splu(self._matrix).solve
        self._dt = dt
        # A copy: a slice of t_ref is a view of the caller's block.
        self._t_ref = np.array(t_ref, dtype=float)[self._nonlinear]
        self.factorizations += 1

    def _ensure_factors(self, reference, dt):
        if self._solve is None or dt != self._dt or self._drifted(reference):
            self._refactor(reference, dt)

    # -- stepping ------------------------------------------------------------
    def step_batch(self, temperatures, dt, rhs):
        """One factorization (linearized at the batch-mean temperature)
        and one multi-column backsolve for every column.  A lone column
        is its own mean, so it is the reference without taking one."""
        columns = temperatures.shape[1]
        self._ensure_factors(
            temperatures[:, 0] if columns == 1 else temperatures.mean(axis=1),
            dt,
        )
        b = self._c_column * temperatures
        b += rhs
        self.solves += columns
        return self._solve(b)


#: ``batched_lu`` names CachedLU, whose :meth:`~CachedLU.step_batch`
#: serves co-stepped groups; the alias keeps older specs loading.
BatchedLU = CachedLU
SOLVER_BACKENDS.register("batched_lu", CachedLU)


def make_backend(spec=None):
    """Resolve a backend spec to a fresh (unbound) backend instance.

    ``spec`` may be ``None`` (the reference ``sparse_be``), an already
    constructed :class:`SolverBackend`, or any
    :meth:`~repro.util.registry.Registry.resolve` spec: a registered
    name or a ``{"name": ..., "params": {...}}`` dict (the JSON form
    that rides inside :class:`repro.core.framework.FrameworkConfig`).
    """
    if spec is None:
        spec = "sparse_be"
    if isinstance(spec, SolverBackend):
        return spec
    return SOLVER_BACKENDS.resolve(spec)
