"""The prebuilt-pattern assembly against the COO route it replaced.

``RCNetwork.system_matrix`` writes ``C/dt + G(T)`` straight into a CSC
pattern derived once per structure.  The oracle below is the original
assembly, kept here only as a reference: build ``G(T)`` from the COO
edge list, let SciPy canonicalise it, add ``diags(C/dt)`` and convert to
CSC.  The two must agree bit for bit in ``data``, ``indices`` and
``indptr`` — the solver sequence, and so every trace digest, depends on
it.  Rows with more than 16 entries matter: SciPy's per-row index sort
is not stable there, so the summation order of duplicates is not the
input order.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.scenario.registry import FLOORPLANS
from repro.thermal.rc_network import network_for


def coo_conductance(net, temperatures):
    """G(T) the way it was assembled before the prebuilt pattern."""
    n = net.num_cells
    g = net.edge_conductances(temperatures)
    i, j = net.edge_i, net.edge_j
    rows = np.concatenate([i, j, i, j, np.arange(n)])
    cols = np.concatenate([j, i, i, j, np.arange(n)])
    data = np.concatenate([-g, -g, g, g, net.g_ambient])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def coo_system(net, temperatures, c_over_dt):
    return (coo_conductance(net, temperatures) + sparse.diags(c_over_dt)).tocsc()


def assert_bitwise(actual, expected):
    assert actual.format == "csc"
    assert actual.shape == expected.shape
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert actual.data.tobytes() == expected.data.tobytes()


def max_row_entries(net):
    """Entries of the busiest row of the COO edge list."""
    rows = np.concatenate(
        [net.edge_i, net.edge_j, net.edge_i, net.edge_j,
         np.arange(net.num_cells)]
    )
    return int(np.bincount(rows).max())


GRIDS = [
    (mode, refine)
    for mode in ("component", "uniform")
    for refine in (1, 2)
]


@pytest.mark.parametrize("floorplan", FLOORPLANS.names())
@pytest.mark.parametrize("mode,refine", GRIDS)
def test_system_matrix_matches_coo_oracle_bitwise(floorplan, mode, refine):
    net = network_for(
        FLOORPLANS.get(floorplan)(), mode=mode, refine_critical=refine,
        die_resolution=(8, 8), spreader_resolution=(3, 3),
    )
    rng = np.random.default_rng(0)
    reused = None
    for dt in (1e-2, 1e-4):
        c_over_dt = net.capacitance / dt
        for _ in range(10):
            t = rng.uniform(290.0, 420.0, net.num_cells)
            expected = coo_system(net, t, c_over_dt)
            assert_bitwise(net.system_matrix(t, c_over_dt), expected)
            # Refilling a previously returned matrix in place is the
            # backends' path; it must agree too.
            reused = net.system_matrix(t, c_over_dt, out=reused)
            assert_bitwise(reused, expected)
            assert_bitwise(
                net.conductance_matrix(t), coo_conductance(net, t).tocsc()
            )


def test_default_grid_has_rows_past_the_stable_sort_limit():
    """The oracle cases include rows where SciPy's index sort is not
    stable (more than 16 entries), so duplicate order is exercised."""
    net = network_for(
        FLOORPLANS.get("4xarm11")(), spreader_resolution=(3, 3)
    )
    assert max_row_entries(net) > 16


def test_returned_matrices_do_not_share_index_arrays():
    """Each fresh matrix owns its index arrays, so in-place structural
    edits (``eliminate_zeros``, ``sort_indices``) cannot corrupt the
    cached pattern."""
    net = network_for(FLOORPLANS.get("4xarm7")(), spreader_resolution=(2, 2))
    t = np.full(net.num_cells, 320.0)
    a = net.conductance_matrix(t)
    b = net.conductance_matrix(t)
    assert not np.shares_memory(a.indices, b.indices)
    assert not np.shares_memory(a.indptr, b.indptr)
