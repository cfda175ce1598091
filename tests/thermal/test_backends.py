"""Solver-backend tests: registry, equivalence, refactorization policy,
multi-RHS batching, energy balance, structure sharing, and agreement with
the ``sparse_be`` reference on grids up to the paper's 660-cell class."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from repro.thermal.backends import (
    SOLVER_BACKENDS,
    BatchedLU,
    CachedLU,
    SparseBE,
    make_backend,
)
from repro.thermal.calibration import uniform_floorplan
from repro.thermal.floorplan import floorplan_4xarm11, floorplan_4xarm7
from repro.thermal.grid import build_grid
from repro.thermal.properties import Material, ThermalProperties
from repro.thermal.rc_network import (
    RCNetwork,
    clear_assembly_cache,
    network_for,
)
from repro.thermal.solver import ThermalSolver

DT = 0.010


def component_network():
    grid = build_grid(
        floorplan_4xarm11(), mode="component", spreader_resolution=(2, 2)
    )
    return RCNetwork(grid)


def uniform_network():
    grid = build_grid(
        uniform_floorplan(),
        mode="uniform",
        die_resolution=(4, 4),
        spreader_resolution=(4, 4),
    )
    return RCNetwork(grid)


def linear_network():
    """A constant-k die: CachedLU must be *exact* and factorize once."""
    props = ThermalProperties(die_material=Material("si-linear", 150.0, 1.628e6))
    grid = build_grid(
        uniform_floorplan(),
        properties=props,
        mode="uniform",
        die_resolution=(3, 3),
        spreader_resolution=(3, 3),
    )
    return RCNetwork(grid)


def sources_of(network, watts):
    """Per-cell sources of a ``{component: watts}`` map."""
    return network.injection(network.watts_vector(watts))


def trajectories(network, backend, powers_per_window):
    net = network.clone()
    solver = ThermalSolver(net, backend=backend)
    out = []
    for powers in powers_per_window:
        solver.step_be(DT, sources_of(net, powers))
        out.append(solver.temperatures.copy())
    return np.array(out), solver.backend


# -- registry / construction -------------------------------------------------

def test_registry_names_and_make_backend():
    assert {"sparse_be", "cached_lu", "batched_lu"} <= set(SOLVER_BACKENDS.names())
    assert isinstance(make_backend(None), SparseBE)
    assert isinstance(make_backend("cached_lu"), CachedLU)
    backend = make_backend(
        {"name": "cached_lu", "params": {"refactor_tolerance_kelvin": 0.5}}
    )
    assert backend.refactor_tolerance_kelvin == 0.5
    instance = BatchedLU()
    assert make_backend(instance) is instance


def test_bind_refuses_a_second_network():
    backend = CachedLU()
    first = uniform_network()
    backend.bind(first)
    backend.bind(first)  # idempotent re-bind to the same network is fine
    with pytest.raises(ValueError, match="already bound"):
        backend.bind(component_network())


def test_make_backend_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown solver backend"):
        make_backend("nope")
    with pytest.raises(ValueError, match="'name' entry"):
        make_backend({"params": {}})
    with pytest.raises(ValueError, match="unknown solver backend keys"):
        make_backend({"name": "cached_lu", "speed": 11})
    with pytest.raises(TypeError):
        make_backend(42)
    with pytest.raises(ValueError, match="tolerance"):
        CachedLU(refactor_tolerance_kelvin=0.0)


# -- equivalence -------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    watts=st.floats(min_value=0.05, max_value=3.0),
    split=st.floats(min_value=0.0, max_value=1.0),
)
def test_cached_matches_reference_on_component_grid(watts, split):
    """Property: CachedLU tracks SparseBE within its drift tolerance on
    the paper's component grid, under power that changes mid-run."""
    network = component_network()
    schedule = [{"arm11_0": watts, "arm11_1": watts * split}] * 30
    schedule += [{"arm11_2": watts, "arm11_3": watts * (1 - split)}] * 30
    reference, _ = trajectories(network, "sparse_be", schedule)
    cached, backend = trajectories(network, "cached_lu", schedule)
    assert float(np.max(np.abs(cached - reference))) < 0.1
    assert backend.factorizations < len(schedule)


@settings(max_examples=10, deadline=None)
@given(watts=st.floats(min_value=0.1, max_value=5.0))
def test_batched_matches_reference_on_uniform_grid(watts):
    network = uniform_network()
    schedule = [{"block": watts}] * 40
    reference, _ = trajectories(network, "sparse_be", schedule)
    batched, _ = trajectories(network, "batched_lu", schedule)
    assert float(np.max(np.abs(batched - reference))) < 0.1


def test_cached_is_exact_and_factorizes_once_on_linear_stack():
    network = linear_network()
    schedule = [{"block": 5.0 if w < 40 else 1.0} for w in range(80)]
    reference, _ = trajectories(network, "sparse_be", schedule)
    cached, backend = trajectories(network, "cached_lu", schedule)
    assert float(np.max(np.abs(cached - reference))) < 1e-8
    assert backend.factorizations == 1  # linear: no drift-triggered rebuilds


def test_multi_rhs_step_batch_matches_columns():
    """One step_batch call advances every column like a per-column solve."""
    network = uniform_network()
    sources = np.stack(
        [sources_of(network, {"block": watts}) for watts in (1.0, 2.0, 3.0)],
        axis=1,
    )
    backend = BatchedLU(refactor_tolerance_kelvin=0.5).bind(network)
    temps = np.full((network.num_cells, 3), network.properties.ambient)
    rhs = network.rhs(sources)
    for _ in range(25):
        temps = backend.step_batch(temps, DT, rhs)
    for col, watts in enumerate((1.0, 2.0, 3.0)):
        reference, _ = trajectories(network, "sparse_be", [{"block": watts}] * 25)
        worst = float(np.max(np.abs(temps[:, col] - reference[-1])))
        assert worst < 0.2, f"column {col}: {worst} K"
    assert backend.factorizations < 25


# -- one step contract: step_be is a one-column step_batch ------------------

def sparse_be_step(backend, temperatures, dt, sources):
    """``SparseBE.step`` as it was before ``step_batch`` became the
    only step: one vector of sources, one factorization."""
    net = backend.network
    c_over_dt = net.capacitance / dt
    backend._matrix = net.system_matrix(temperatures, c_over_dt, backend._matrix)
    b = c_over_dt * temperatures + (sources + net._ambient_source)
    backend.factorizations += 1
    backend.solves += 1
    return spsolve(backend._matrix, b)


def cached_lu_step(backend, temperatures, dt, sources):
    """``CachedLU.step`` as it was before ``step_batch`` became the only
    step: the lone vector is the linearization reference."""
    backend._ensure_factors(temperatures, dt)
    b = backend._c_column[:, 0] * temperatures + (
        sources + backend.network._ambient_source
    )
    backend.solves += 1
    return backend._solve(b)


ORACLE_STEPS = 120


@pytest.mark.parametrize("backend,reference_step", [
    ("sparse_be", sparse_be_step),
    ("cached_lu", cached_lu_step),
])
def test_step_be_is_the_former_single_step_byte_for_byte(backend, reference_step):
    """Over refactorizations, a ``dt`` change and an ``invalidate()``,
    ``ThermalSolver.step_be`` through the one-column ``step_batch``
    gives the former single-vector step's temperatures and counters."""
    network = uniform_network()
    solver, oracle = (
        ThermalSolver(network.clone(), backend=backend) for _ in range(2)
    )
    for step in range(ORACLE_STEPS):
        watts = {"block": 2.0 + np.sin(step / 7.0)}
        dt = DT if step < 80 else 2 * DT
        if step == 50:
            solver.backend.invalidate()
            oracle.backend.invalidate()
        sources = sources_of(network, watts)
        solver.step_be(dt, sources)
        oracle.temperatures = reference_step(
            oracle.backend, oracle.temperatures, dt, sources
        )
        assert solver.temperatures.tobytes() == oracle.temperatures.tobytes()
        # A lone column is its own batch mean, bit for bit.
        column = solver.temperatures[:, None]
        assert column.mean(axis=1).tobytes() == solver.temperatures.tobytes()
    assert solver.backend.stats() == oracle.backend.stats()
    assert solver.backend.stats()["solves"] == ORACLE_STEPS
    if backend == "cached_lu":
        # Drift refactorizations beyond the invalidate and the dt change,
        # and reuse between them (27 factorizations for 120 steps).
        assert 3 < solver.backend.factorizations < ORACLE_STEPS / 2


# -- energy balance ----------------------------------------------------------

@pytest.mark.parametrize("backend", ["sparse_be", "cached_lu", "batched_lu"])
def test_energy_balance_at_equilibrium(backend):
    """After many time constants the package outflow equals the injected
    power, whichever backend integrated the run."""
    network = uniform_network()
    net = network.clone()
    sources = sources_of(net, {"block": 4.0})
    solver = ThermalSolver(net, backend=backend)
    for _ in range(160):  # 40 s in 0.25 s steps
        solver.step_be(0.25, sources)
    assert net.heat_outflow(solver.temperatures) == pytest.approx(4.0, rel=1e-2)


# -- refactorization policy --------------------------------------------------

def test_dt_change_triggers_refactorization():
    network = uniform_network()
    net = network.clone()
    sources = sources_of(net, {"block": 0.1})
    solver = ThermalSolver(net, backend="cached_lu")
    solver.step_be(DT, sources)
    solver.step_be(DT, sources)
    assert solver.backend.factorizations == 1
    solver.step_be(2 * DT, sources)
    assert solver.backend.factorizations == 2


def test_silicon_drift_triggers_refactorization():
    network = uniform_network()
    net = network.clone()
    # Heats well past 1 K within a few windows.
    sources = sources_of(net, {"block": 30.0})
    solver = ThermalSolver(net, backend=CachedLU(refactor_tolerance_kelvin=0.5))
    for _ in range(40):
        solver.step_be(DT, sources)
    assert solver.backend.factorizations > 1


def test_reset_invalidates_cached_factors():
    network = uniform_network()
    net = network.clone()
    sources = sources_of(net, {"block": 1.0})
    solver = ThermalSolver(net, backend="cached_lu")
    solver.step_be(DT, sources)
    solver.reset()
    assert solver.backend._solve is None
    solver.step_be(DT, sources)
    assert solver.backend.factorizations == 2


def test_backend_stats_counters():
    network = uniform_network()
    net = network.clone()
    sources = sources_of(net, {"block": 1.0})
    solver = ThermalSolver(net, backend="cached_lu")
    for _ in range(5):
        solver.step_be(DT, sources)
    stats = solver.backend.stats()
    assert stats["solves"] == 5
    assert stats["factorizations"] >= 1


# -- structure sharing -------------------------------------------------------

def test_clone_shares_structure_and_is_a_distinct_network():
    """A clone shares every attribute, but it is its own object, so a
    backend bound to the original refuses it."""
    network = uniform_network()
    twin = network.clone()
    assert twin is not network
    assert vars(twin).keys() == vars(network).keys()
    for name, value in vars(network).items():
        assert vars(twin)[name] is value, name
    backend = CachedLU().bind(network)
    with pytest.raises(ValueError, match="already bound"):
        backend.bind(twin)


def test_network_for_caches_by_structure():
    clear_assembly_cache()
    before = RCNetwork.assemblies
    a = network_for(floorplan_4xarm11(), spreader_resolution=(2, 2))
    b = network_for(floorplan_4xarm11(), spreader_resolution=(2, 2))
    assert RCNetwork.assemblies - before == 1
    assert a.grid is b.grid
    c = network_for(floorplan_4xarm11(), spreader_resolution=(3, 3))
    assert RCNetwork.assemblies - before == 2
    assert c.grid is not a.grid


def test_network_for_bypasses_cache_for_custom_properties():
    clear_assembly_cache()
    props = ThermalProperties(die_material=Material("si-linear", 150.0, 1.628e6))
    before = RCNetwork.assemblies
    network_for(uniform_floorplan(), mode="uniform", properties=props)
    network_for(uniform_floorplan(), mode="uniform", properties=props)
    assert RCNetwork.assemblies - before == 2


# -- vectorized injection / readout ------------------------------------------

def test_vectorized_readout_matches_manual_mean():
    network = component_network()
    temps = np.linspace(300.0, 360.0, network.num_cells)
    means = network.as_map(network.component_temperatures(temps))
    grid = network.grid
    for k, name in enumerate(grid.component_names):
        cover = slice(grid.cover_indptr[k], grid.cover_indptr[k + 1])
        cells, areas = grid.cover_cells[cover], grid.cover_areas[cover]
        manual = (temps[cells] * areas).sum() / areas.sum()
        assert means[name] == pytest.approx(manual)
    with pytest.raises(KeyError):
        means["bogus"]


# -- agreement with the reference on the paper's grid sizes -----------------

AGREEMENT_WINDOWS = 200
AGREEMENT_TOLERANCE_K = 0.25  # max |T - reference| over a full run
# Batched columns share one linearization (the batch mean); their error
# is bounded by the column's thermal distance from that mean, so the
# multi-RHS check gets a wider (still sub-kelvin) band.
BATCHED_TOLERANCE_K = 0.5

# From the default preset's coarse co-emulation grid up past the paper's
# 660-cell fine-grid claim.
AGREEMENT_GRIDS = {
    "4xarm7 component (default preset)": lambda: network_for(
        floorplan_4xarm7(), spreader_resolution=(3, 3)
    ),
    "4xarm11 refined x2": lambda: network_for(
        floorplan_4xarm11(), refine_critical=2, spreader_resolution=(4, 4)
    ),
    "uniform 8x8": lambda: network_for(
        floorplan_4xarm11(),
        mode="uniform",
        die_resolution=(8, 8),
        spreader_resolution=(8, 8),
    ),
    "uniform 18x18 (paper's 660-cell claim)": lambda: network_for(
        floorplan_4xarm11(),
        mode="uniform",
        die_resolution=(18, 18),
        spreader_resolution=(18, 18),
    ),
}


def power_schedule(network, windows):
    """A deterministic per-window ``{component: watts}`` schedule.

    Loads shift between component halves every 25 windows and breathe
    sinusoidally, so backends see power changes every single window and
    enough temperature drift to exercise the refactorization policy.
    """
    names = list(network.component_names)
    schedule = []
    for w in range(windows):
        phase = (w // 25) % 2
        breathe = 1.0 + 0.3 * np.sin(2.0 * np.pi * w / 40.0)
        schedule.append({
            name: 0.15 * breathe if (k % 2) == phase else 0.03
            for k, name in enumerate(names)
        })
    return schedule


@pytest.mark.parametrize("label", list(AGREEMENT_GRIDS))
def test_every_backend_agrees_with_reference(label):
    network = AGREEMENT_GRIDS[label]()
    schedule = power_schedule(network, AGREEMENT_WINDOWS)
    reference = trajectories(network, "sparse_be", schedule)[0][-1]
    for name in SOLVER_BACKENDS.names():
        if name == "sparse_be":
            continue
        temps = trajectories(network, name, schedule)[0][-1]
        worst = float(np.max(np.abs(temps - reference)))
        assert worst <= AGREEMENT_TOLERANCE_K, (
            f"{name} diverged from sparse_be on {label}: {worst:.4f} K"
        )

    # Four power-scaled runs through one shared multi-RHS factorization
    # must match their per-column references too.
    columns = 4
    backend = CachedLU().bind(network)
    temps = np.full((network.num_cells, columns), network.properties.ambient)
    scales = np.linspace(0.8, 1.2, columns)
    for powers in schedule:
        sources = np.stack([
            sources_of(network, {k: v * scale for k, v in powers.items()})
            for scale in scales
        ], axis=1)
        temps = backend.step_batch(temps, DT, network.rhs(sources))
    for col, scale in enumerate(scales):
        scaled = [{k: v * scale for k, v in p.items()} for p in schedule]
        reference = trajectories(network, "sparse_be", scaled)[0][-1]
        worst = float(np.max(np.abs(temps[:, col] - reference)))
        assert worst <= BATCHED_TOLERANCE_K, (
            f"batched column {col} diverged on {label}: {worst:.4f} K"
        )
