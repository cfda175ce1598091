"""Equivalent-electrical RC network assembly (Figure 3b).

Each cell carries one thermal capacitance and couples to its neighbours
through thermal resistances: four lateral and one vertical (Figure 3b).
A resistance between two cells is the series of each cell's *half*
resistance, so the non-linear silicon conductivity is evaluated at each
cell's own temperature — exactly the "non-linear resistances inside the
silicon" the paper adopts.  The heat spreader is linear copper.

Boundary conditions (Section 5.2):

* power enters as current sources on the bottom (die) cells, each
  injecting the covering components' power density times the overlap
  area;
* no heat is transferred down into the package from the bottom cells
  (adiabatic bottom and sides);
* the top (spreader) cells lose heat by natural convection through a
  resistance equal to the package-to-air resistance weighted by the
  spreader-to-cell area ratio, in series with the cell's own vertical
  half resistance.

Every cell interacts only with its neighbours, so assembly and solve
cost are linear in the number of cells (sparse matrices).

Power injection and component readout are precomputed sparse maps:
``injection`` is one product ``P = M_inj @ w`` over the component
wattage vector, and per-component mean temperatures are one product
``W @ T`` — no per-window Python loops on the hot path.  Both vectors
are in ``component_names`` order, the one fixed component order of the
whole window.  Each takes a block as well, one column per co-stepped
run, and a block is still one product.  The products call SciPy's
``csr_matvec`` / ``csr_matvecs`` kernels directly (:func:`_matvec`):
they are the kernels ``@`` dispatches to, so the sums run in the same
order, and every column of a block sums exactly as the vector would.

The backward-Euler system ``C/dt + G(T)`` is written straight into a CSC
pattern derived once per network structure (:class:`SystemPattern`, at
the first assembly, never at build time).  The pattern replays SciPy's
own COO canonicalisation — duplicate entries summed left to right in
the order its index sort leaves them — so ``data``, ``indices`` and
``indptr`` are bit-identical to assembling the COO edge list, adding
``diags(C/dt)`` and converting to CSC.

:func:`network_for` is a structure-keyed assembly cache: scenarios that
share a floorplan and grid configuration (a parameter sweep, a batched
run) get clones of one assembled network — grid generation and edge/
matrix assembly happen exactly once per structure per process.
"""

import copy

import numpy as np
from scipy import sparse
# A private SciPy module (checked on SciPy 1.17.1); test_rc_network pins
# ``_matvec`` against ``matrix @ vector`` byte for byte.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from repro.thermal.grid import build_grid, used_die_knobs
from repro.thermal.properties import silicon_conductivity


class RCNetwork:
    """Sparse thermal RC network over a :class:`repro.thermal.grid.Grid`."""

    #: process-wide count of full assemblies (clones don't count) — lets
    #: tests assert that a sweep shared one assembly across B scenarios.
    assemblies = 0

    #: content key of the structure this network was assembled from
    #: (:func:`structure_key`, set by :func:`network_for`; ``None`` for
    #: direct/custom-property builds).  Equal keys mean identical
    #: structure arrays even across distinct prototype objects.
    structure_key = None

    def __init__(self, grid):
        RCNetwork.assemblies += 1
        self.grid = grid
        self.properties = grid.properties
        n = grid.num_cells
        self.num_cells = n

        props = self.properties
        die = np.arange(n) < grid.num_die
        die_material = props.die_material
        spreader_material = props.spreader_material
        # Per-cell capacitance C = volumetric heat * volume.
        self.capacitance = np.where(
            die, die_material.volumetric_heat, spreader_material.volumetric_heat
        ) * (grid.area * grid.thickness)
        # Which cells have temperature-dependent conductivity (silicon die).
        self.is_nonlinear = die & bool(die_material.nonlinear)
        self._linear_k = np.where(
            die, die_material.k(300.0), spreader_material.k(300.0)
        )

        # Edge arrays: conductance of edge e = 1 / (geom_i/k_i + geom_j/k_j)
        # where geom is the half-resistance geometric factor (1/m); the
        # lateral edges come first, then the vertical ones.
        half = grid.thickness / 2.0
        self.edge_i = np.concatenate((grid.lateral_i, grid.vertical_i))
        self.edge_j = np.concatenate((grid.lateral_j, grid.vertical_j))
        self.geom_i, self.geom_j = (
            np.concatenate((
                (np.where(grid.lateral_x, grid.width[lateral],
                          grid.height[lateral]) / 2.0)
                / (grid.lateral_face * grid.thickness[lateral]),
                half[vertical] / grid.vertical_area,
            ))
            for lateral, vertical in (
                (grid.lateral_i, grid.vertical_i),
                (grid.lateral_j, grid.vertical_j),
            )
        )

        # Convection from top (spreader) cells to ambient: the package
        # resistance weighted by area ratio, in series with the copper
        # half resistance of the cell itself.
        top = grid.spreader_cells
        top_area = grid.area[top]
        r_conv = props.package_to_air_resistance * (grid.floorplan.area / top_area)
        r_half = half[top] / (spreader_material.k(300.0) * top_area)
        g_amb = np.zeros(n)
        g_amb[top] = 1.0 / (r_conv + r_half)
        self.g_ambient = g_amb
        # The ambient Dirichlet term of every right-hand side.
        self._ambient_source = g_amb * props.ambient
        self.nonlinear_cells = np.flatnonzero(self.is_nonlinear)
        # Lazily derived, structure-level state shared with every clone
        # (the system-matrix pattern).
        self._structure = {}

        # Precomputed sparse injection / readout maps (component order is
        # the grid's cover order; both matrices are built once).
        self.component_names = grid.component_names
        self._comp_index = {
            name: k for k, name in enumerate(self.component_names)
        }
        m = len(self.component_names)
        cells, overlap = grid.cover_cells, grid.cover_areas
        component = np.repeat(np.arange(m), np.diff(grid.cover_indptr))
        comp_area = np.array(
            [comp.area for comp in grid.floorplan.active_components()]
        )
        # Each component's covered area, summed in cover order as a
        # running sum (the zeros of uncovered cells add nothing).
        covered = np.zeros((m, grid.num_die))
        covered[component, cells] = overlap
        cover_area = np.add.accumulate(covered, axis=1)[:, -1]
        # readout: cell temperatures (n,) -> area-weighted means (m,)
        self._readout = sparse.csr_matrix(
            (overlap / cover_area[component], cells, grid.cover_indptr),
            shape=(m, n),
        )
        # injection: watts vector (m,) -> per-cell sources (n,), the
        # readout's pattern transposed (rows by cell, then component).
        by_cell = np.lexsort((component, cells))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=n), out=indptr[1:])
        self._injection = sparse.csr_matrix(
            ((overlap / comp_area[component])[by_cell], component[by_cell],
             indptr),
            shape=(n, m),
        )
        self._inject_args = _matvec_args(self._injection)
        self._readout_args = _matvec_args(self._readout)

    # -- power -----------------------------------------------------------------
    def watts_vector(self, component_powers):
        """A ``{component: watts}`` map as a vector in
        ``component_names`` order (for hand-built power maps; the
        window produces the vector directly)."""
        watts = np.zeros(len(self.component_names))
        for name, value in component_powers.items():
            if value == 0.0:  # passive/filler entries carry no source
                continue
            index = self._comp_index.get(name)
            if index is None:
                raise KeyError(f"no floorplan component {name!r}")
            watts[index] = value
        return watts

    def injection(self, watts):
        """Per-cell sources ``M_inj @ w`` of a watts vector in
        ``component_names`` order, or of a block of them (components x
        runs).  Power is spread over the component's covering die cells
        proportionally to overlap area ("the heat injected by the
        current source corresponds to the power density of the
        architectural component covering the cell multiplied by the
        surface area of the cell")."""
        return _matvec(self._inject_args, watts)

    # -- readout ---------------------------------------------------------------
    def component_temperatures(self, temperatures):
        """Area-weighted mean temperature per component, ``W @ T``, as a
        vector in ``component_names`` order; a block of cell
        temperatures (cells x runs) reads out as a block."""
        return _matvec(self._readout_args, temperatures)

    def as_map(self, vector):
        """A per-component vector as ``{component: value}``."""
        return dict(zip(self.component_names, vector.tolist()))

    # -- conductance assembly ---------------------------------------------------
    def cell_conductivity(self, temperatures):
        """Per-cell conductivity at the given temperatures."""
        k = self._linear_k.copy()
        cells = self.nonlinear_cells
        if len(cells):
            k[cells] = silicon_conductivity(np.asarray(temperatures)[cells])
        return k

    def edge_conductances(self, temperatures):
        k = self.cell_conductivity(temperatures)
        r = self.geom_i / k[self.edge_i] + self.geom_j / k[self.edge_j]
        return 1.0 / r

    def _system_pattern(self):
        """The :class:`SystemPattern` of this structure, derived at the
        first call and shared by every clone."""
        pattern = self._structure.get("pattern")
        if pattern is None:
            pattern = self._structure["pattern"] = SystemPattern(self)
        return pattern

    def system_matrix(self, temperatures, c_over_dt=None, out=None):
        """``C/dt + G(T)`` in CSC form (``G(T)`` alone without ``c_over_dt``).

        With ``out`` (a matrix this method returned before, for this
        structure) the values are written into it and it is returned;
        otherwise a new matrix with its own index arrays is built.
        """
        pattern = self._system_pattern()
        if c_over_dt is None:
            c_over_dt = pattern.no_diagonal
        data = pattern.values(
            self.edge_conductances(temperatures), self.g_ambient, c_over_dt
        )
        if out is None:
            return sparse.csc_matrix(
                (data, pattern.indices.copy(), pattern.indptr.copy()),
                shape=(self.num_cells, self.num_cells),
            )
        out.data = data
        return out

    def conductance_matrix(self, temperatures):
        """Sparse G(T) (CSC): graph Laplacian over the edges + ambient leakage."""
        return self.system_matrix(temperatures)

    def rhs(self, sources):
        """Right-hand side of a block of per-cell sources (cells x runs,
        one column each): the sources plus the ambient Dirichlet term."""
        if sources.ndim != 2:
            raise ValueError(
                f"rhs takes a (cells x runs) block, got shape {sources.shape}"
            )
        return sources + self._ambient_source[:, None]

    # -- energy bookkeeping (property tests) ---------------------------------
    def heat_outflow(self, temperatures):
        """Watts leaving through the package at the given temperatures."""
        t = np.asarray(temperatures)
        return float(
            np.sum(self.g_ambient * (t - self.properties.ambient))
        )

    # -- structure sharing ----------------------------------------------------
    def clone(self):
        """A new network object sharing every array of this one.

        A network holds no per-run state, so the clone is a shallow
        copy: capacitances, edge arrays, ambient conductances and the
        injection/readout matrices are shared read-only.  It is a
        distinct object because a backend binds to one network object
        and refuses another
        (:meth:`~repro.thermal.backends.SolverBackend.bind`), so each run
        needs its own.  This is what makes the assembly cache in
        :func:`network_for` safe and cheap.
        """
        return copy.copy(self)


def _matvec_args(matrix):
    """The leading ``csr_matvec`` arguments of a CSR matrix."""
    rows, cols = matrix.shape
    return rows, cols, matrix.indptr, matrix.indices, matrix.data


def _matvec(args, operand):
    """``matrix @ operand`` through the kernel ``@`` itself calls, on
    the :func:`_matvec_args` of ``matrix``: the same float64 sums, in
    the same order, into a fresh zeroed vector.  A 2-D ``operand`` is a
    block of column vectors, multiplied in one ``csr_matvecs`` sweep
    that sums each column in ``csr_matvec``'s order (a single column
    takes the cheaper vector kernel)."""
    rows, cols, indptr, indices, data = args
    operand = np.asarray(operand)
    if operand.ndim == 2 and len(operand) == cols:
        vectors = operand.shape[1]
        out = np.zeros((rows, vectors))
        if vectors == 1:  # both are contiguous vectors, in effect
            csr_matvec(rows, cols, indptr, indices, data,
                       np.ascontiguousarray(operand), out)
        else:
            csr_matvecs(rows, cols, vectors, indptr, indices, data,
                        operand, out)
        return out
    if operand.shape != (cols,):  # the kernels do not check
        raise ValueError(
            f"expected a vector of {cols} entries, got shape {operand.shape}"
        )
    out = np.zeros(rows)
    csr_matvec(rows, cols, indptr, indices, data, operand, out)
    return out


class SystemPattern:
    """Where every value of ``C/dt + G(T)`` comes from, in CSC order.

    ``G(T)`` is the COO edge list ``(i, j, -g)``, ``(j, i, -g)``,
    ``(i, i, g)``, ``(j, j, g)`` plus the ambient diagonal; SciPy sums
    its duplicates left to right in the order its (not always stable)
    index sort leaves them, then ``+ diags(C/dt)`` adds one more term to
    each diagonal slot.  That order depends on the index pattern alone,
    so it is read off once by running SciPy's canonicalisation on
    marker values (each entry's own position).  :meth:`values` then
    replays the same additions in the same order on real values:
    ``data``, ``indices`` and ``indptr`` come out bit-identical to the
    COO route at a fraction of its cost.
    """

    def __init__(self, network):
        n = network.num_cells
        edge_i, edge_j = network.edge_i, network.edge_j
        edges = len(edge_i)
        cells = np.arange(n)
        rows = np.concatenate([edge_i, edge_j, edge_i, edge_j, cells])
        cols = np.concatenate([edge_j, edge_i, edge_i, edge_j, cells])
        # Each COO entry's value as an index into the ``source`` vector
        # [-g, g, g_ambient, diagonal, 0.0] that values() concatenates.
        edge = np.arange(edges)
        source = np.concatenate(
            [edge, edge, edges + edge, edges + edge, 2 * edges + cells]
        )
        diagonal_source = 2 * edges + n  # + cell
        zero_source = 2 * edges + 2 * n

        # SciPy's COO -> CSR keeps each row's entries in input order; its
        # canonicalisation then sorts every row by column.  Run that sort
        # on the entries' positions to learn the summation order.
        by_row = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        markers = sparse.csr_matrix(
            (by_row.astype(float), cols[by_row], indptr), shape=(n, n)
        )
        markers.sort_indices()
        entry = markers.data.astype(np.int64)
        row, col = rows[entry], markers.indices.astype(np.int64)

        # Runs of one (row, col) are the slots duplicates sum into.
        first = np.ones(len(entry), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        slot_row, slot_col = row[first], col[first]
        # CSR slot -> CSC position: columns major, rows ascending.
        to_csc = np.empty(len(slot_row), dtype=np.int64)
        to_csc[np.lexsort((slot_row, slot_col))] = np.arange(len(slot_row))
        slot = to_csc[np.cumsum(first) - 1]
        slots = len(slot_row)
        diagonal = to_csc[slot_row == slot_col]

        # Terms per CSC slot, in summation order: the entries, then the
        # diagonal's C/dt term (appended last; a stable sort keeps it so).
        term_slot = np.concatenate([slot, diagonal])
        term_source = np.concatenate(
            [source[entry], diagonal_source + slot_row[slot_row == slot_col]]
        )
        order = np.argsort(term_slot, kind="stable")
        term_slot, term_source = term_slot[order], term_source[order]
        length = np.bincount(term_slot, minlength=slots)
        rank = np.arange(len(term_slot)) - (np.cumsum(length) - length)[term_slot]

        single = length == 1
        self.single_slots = np.flatnonzero(single)
        self.single_sources = term_source[single[term_slot]]
        # Multi-term slots as a (depth, slots) table, right-aligned and
        # padded in front with the 0.0 source: accumulating down the
        # rows adds the terms in order (0.0 + x is x for every x != -0.0,
        # and no slot's first term is -0.0).
        multi = np.flatnonzero(~single)
        depth = int(length.max())
        column = np.full(slots, -1, dtype=np.int64)
        column[multi] = np.arange(len(multi))
        in_multi = ~single[term_slot]
        table = np.full((depth, len(multi)), zero_source, dtype=np.int64)
        table[
            (depth - length[term_slot] + rank)[in_multi],
            column[term_slot][in_multi],
        ] = term_source[in_multi]
        self.multi_slots = multi
        self.multi_sources = table

        self.indices = np.empty(slots, dtype=np.int32)
        self.indices[to_csc] = slot_row
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot_col, minlength=n), out=self.indptr[1:])
        self.nnz = slots
        self.no_diagonal = np.zeros(n)

    def values(self, conductances, g_ambient, c_over_dt):
        """The CSC ``data`` of ``diags(c_over_dt) + G`` for edge
        conductances ``conductances``."""
        source = np.concatenate(
            (-conductances, conductances, g_ambient, c_over_dt, _ZERO)
        )
        data = np.empty(self.nnz)
        data[self.single_slots] = source[self.single_sources]
        data[self.multi_slots] = np.add.accumulate(
            source[self.multi_sources], axis=0
        )[-1]
        return data


_ZERO = np.zeros(1)


# -- structure-keyed assembly cache ------------------------------------------

_ASSEMBLY_CACHE = {}
_ASSEMBLY_CACHE_LIMIT = 32


def structure_key(floorplan, mode, refine_critical, die_resolution,
                  spreader_resolution):
    """The content key of the network a floorplan + grid configuration
    assembles to, known before anything is built.

    Equal keys mean identical structure arrays: :func:`network_for`
    caches prototypes under it (and stamps it on what it hands out as
    :attr:`RCNetwork.structure_key`), and the batch runner groups
    scenarios by it before it builds any of them.  A die knob the grid
    ``mode`` never reads is normalized away (:func:`used_die_knobs`).
    """
    refine_critical, die_resolution = used_die_knobs(
        mode, refine_critical, die_resolution
    )
    return (
        floorplan.fingerprint(),
        mode,
        refine_critical,
        die_resolution,
        tuple(spreader_resolution),
    )


def network_for(
    floorplan,
    mode="component",
    refine_critical=1,
    die_resolution=(8, 8),
    spreader_resolution=(4, 4),
    properties=None,
):
    """A ready :class:`RCNetwork` for the floorplan + grid configuration.

    Structurally identical requests (same floorplan geometry, same grid
    knobs, default properties) share one grid generation and one matrix
    assembly per process: later calls return :meth:`RCNetwork.clone`
    views of the cached prototype.  Custom ``properties`` bypass the
    cache (the key would need a material fingerprint).
    """
    if properties is not None:
        grid = build_grid(
            floorplan,
            properties=properties,
            mode=mode,
            refine_critical=refine_critical,
            die_resolution=die_resolution,
            spreader_resolution=spreader_resolution,
        )
        return RCNetwork(grid)
    key = structure_key(
        floorplan, mode, refine_critical, die_resolution, spreader_resolution
    )
    prototype = _ASSEMBLY_CACHE.get(key)
    if prototype is None:
        _, _, refine_critical, die_resolution, _ = key  # the normalized knobs
        grid = build_grid(
            floorplan,
            mode=mode,
            refine_critical=refine_critical,
            die_resolution=die_resolution,
            spreader_resolution=spreader_resolution,
        )
        prototype = RCNetwork(grid)
        prototype.structure_key = key
        if len(_ASSEMBLY_CACHE) >= _ASSEMBLY_CACHE_LIMIT:
            _ASSEMBLY_CACHE.pop(next(iter(_ASSEMBLY_CACHE)))
        _ASSEMBLY_CACHE[key] = prototype
    return prototype.clone()


def clear_assembly_cache():
    """Drop all cached network prototypes (tests, cold-process timings)."""
    _ASSEMBLY_CACHE.clear()
