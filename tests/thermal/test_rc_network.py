"""RC network assembly tests: capacitances, conductances, boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.thermal.calibration import uniform_floorplan
from repro.thermal.grid import build_grid
from repro.thermal.properties import (
    PACKAGE_TO_AIR_RESISTANCE,
    ThermalProperties,
    silicon_conductivity,
)
from repro.thermal.rc_network import RCNetwork, _matvec, _matvec_args


def make_network(die_res=(3, 3), spread_res=(3, 3)):
    plan = uniform_floorplan()
    grid = build_grid(
        plan, mode="uniform", die_resolution=die_res, spreader_resolution=spread_res
    )
    return plan, grid, RCNetwork(grid)


def test_capacitances_match_materials():
    props = ThermalProperties()
    plan, grid, net = make_network()
    volume = grid.area * grid.thickness
    for cells, material in (
        (grid.die_cells, props.die_material),
        (grid.spreader_cells, props.spreader_material),
    ):
        expected = material.volumetric_heat * volume[cells]
        assert net.capacitance[cells] == pytest.approx(expected)


def test_total_capacitance_is_stack_capacitance():
    props = ThermalProperties()
    plan, grid, net = make_network()
    expected = plan.area * (
        props.die_thickness * props.die_material.volumetric_heat
        + props.spreader_thickness * props.spreader_material.volumetric_heat
    )
    assert net.capacitance.sum() == pytest.approx(expected, rel=1e-9)


def test_ambient_conductances_parallel_to_package_resistance():
    # The per-cell convection resistances in parallel must reproduce the
    # package-to-air resistance (plus the copper half layer).
    plan, grid, net = make_network()
    g_total = net.g_ambient.sum()
    assert g_total > 0
    r_parallel = 1.0 / g_total
    assert PACKAGE_TO_AIR_RESISTANCE <= r_parallel <= PACKAGE_TO_AIR_RESISTANCE * 1.05


def test_only_spreader_cells_touch_ambient():
    plan, grid, net = make_network()
    assert (net.g_ambient[grid.die_cells] == 0.0).all()
    assert (net.g_ambient[grid.spreader_cells] > 0.0).all()


def test_conductance_matrix_symmetric():
    plan, grid, net = make_network()
    t = np.full(net.num_cells, 320.0)
    g = net.conductance_matrix(t)
    dense = g.toarray()
    assert np.allclose(dense, dense.T)


def test_conductance_matrix_rows_sum_to_ambient_leak():
    # Graph Laplacian rows sum to zero except for the ambient conductance.
    plan, grid, net = make_network()
    t = np.full(net.num_cells, 300.0)
    g = net.conductance_matrix(t).toarray()
    rows = g.sum(axis=1)
    assert np.allclose(rows, net.g_ambient, atol=1e-12)


def test_hotter_silicon_conducts_less():
    plan, grid, net = make_network()
    cold = net.edge_conductances(np.full(net.num_cells, 300.0))
    hot = net.edge_conductances(np.full(net.num_cells, 400.0))
    # Edges between two silicon cells must weaken with temperature.
    si_edges = [
        e
        for e in range(len(net.edge_i))
        if net.is_nonlinear[net.edge_i[e]] and net.is_nonlinear[net.edge_j[e]]
    ]
    assert si_edges
    for e in si_edges:
        assert hot[e] < cold[e]
    ratio = hot[si_edges[0]] / cold[si_edges[0]]
    assert ratio == pytest.approx(
        silicon_conductivity(400.0) / silicon_conductivity(300.0)
    )


def test_injection_spreads_by_overlap():
    plan, grid, net = make_network(die_res=(2, 2))
    sources = net.injection(net.watts_vector({"block": 8.0}))
    assert sources.shape == (net.num_cells,)
    die_powers = sources[grid.die_cells]
    assert die_powers.sum() == pytest.approx(8.0)
    assert np.allclose(die_powers, 2.0)  # four equal cells
    spread = sources[grid.spreader_cells]
    assert np.all(spread == 0.0)


def test_watts_vector_unknown_component():
    plan, grid, net = make_network()
    with pytest.raises(KeyError):
        net.watts_vector({"bogus": 1.0})


def test_heat_outflow_zero_at_ambient():
    plan, grid, net = make_network()
    t = np.full(net.num_cells, net.properties.ambient)
    assert net.heat_outflow(t) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(watts=st.floats(min_value=0.01, max_value=50.0))
def test_power_injection_conserves_watts(watts):
    """Property: injected power equals the sum of the current sources."""
    plan, grid, net = make_network()
    sources = net.injection(net.watts_vector({"block": watts}))
    assert sources.sum() == pytest.approx(watts, rel=1e-12)


def test_direct_kernel_equals_the_sparse_product_bytewise():
    """``_matvec`` calls SciPy's private ``csr_matvec``; it must give
    exactly what ``@`` gives, on the network's own matrices and on a
    random rectangular one."""
    from scipy import sparse

    _, grid, net = make_network(die_res=(4, 3), spread_res=(5, 5))
    rng = np.random.default_rng(3)
    random = sparse.random(17, 29, density=0.3, format="csr", random_state=rng)
    for matrix in (net._injection, net._readout, random):
        for _ in range(5):
            vector = rng.normal(300.0, 40.0, matrix.shape[1])
            got = _matvec(_matvec_args(matrix), vector)
            assert got.tobytes() == (matrix @ vector).tobytes()
    with pytest.raises(ValueError, match="expected a vector of 29"):
        _matvec(_matvec_args(random), np.zeros(28))
