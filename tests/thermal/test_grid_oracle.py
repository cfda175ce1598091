"""Array grid generation and RC assembly against per-cell loops.

``build_grid`` and ``RCNetwork`` work on arrays of cell coordinates.
The oracle below is the per-cell, per-pair and per-edge loop assembly
they replaced, kept here only as a reference: cells as objects, lateral
faces found through 0.1 nm edge buckets, die/spreader overlaps through a
spatial hash, cover by one overlap test per (component, cell), and the
capacitance, edge geometry, ambient conductance and injection/readout
maps accumulated entry by entry.  On random guillotine tilings (hanging
nodes, filler, refined critical rectangles, uneven spreader grids) the
two must agree byte for byte: every trace digest depends on these
arrays.  The oracle's bucket search looks only one bucket either side,
so it misses faces offset by 1.5-2 quanta (see ``test_grid.py``);
tilings made by splitting never come near that.
"""

import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.thermal.floorplan import Floorplan, FloorplanComponent
from repro.thermal.grid import build_grid
from repro.thermal.properties import ThermalProperties
from repro.thermal.rc_network import RCNetwork

QUANTUM = 1e-10


def _q(coord):
    return round(coord / QUANTUM)


@dataclass
class Cell:
    index: int
    die: bool
    x: float
    y: float
    width: float
    height: float
    thickness: float

    @property
    def area(self):
        return self.width * self.height

    @property
    def x1(self):
        return self.x + self.width

    @property
    def y1(self):
        return self.y + self.height


def _subdivide(x, y, w, h, nx, ny):
    return [
        (x + i * w / nx, y + j * h / ny, w / nx, h / ny)
        for i in range(nx)
        for j in range(ny)
    ]


def _lateral_adjacency(cells):
    edges = []
    left, bottom = defaultdict(list), defaultdict(list)
    for cell in cells:
        left[_q(cell.x)].append(cell)
        bottom[_q(cell.y)].append(cell)

    def candidates(buckets, coord):
        k = _q(coord)
        for key in (k - 1, k, k + 1):
            yield from buckets.get(key, ())

    for cell in cells:
        for other in candidates(left, cell.x1):
            if abs(cell.x1 - other.x) > 2 * QUANTUM:
                continue
            overlap = min(cell.y1, other.y1) - max(cell.y, other.y)
            if overlap > QUANTUM:
                edges.append((cell.index, other.index, overlap, "x"))
        for other in candidates(bottom, cell.y1):
            if abs(cell.y1 - other.y) > 2 * QUANTUM:
                continue
            overlap = min(cell.x1, other.x1) - max(cell.x, other.x)
            if overlap > QUANTUM:
                edges.append((cell.index, other.index, overlap, "y"))
    return edges


def _rect_overlaps(cells_a, cells_b):
    bin_size = max(max(c.width for c in cells_b), max(c.height for c in cells_b))
    bins = defaultdict(list)
    for cell in cells_b:
        for i in range(int(cell.x / bin_size), int(cell.x1 / bin_size) + 1):
            for j in range(int(cell.y / bin_size), int(cell.y1 / bin_size) + 1):
                bins[(i, j)].append(cell)
    pairs, seen = [], set()
    for cell in cells_a:
        for i in range(int(cell.x / bin_size), int(cell.x1 / bin_size) + 1):
            for j in range(int(cell.y / bin_size), int(cell.y1 / bin_size) + 1):
                for other in bins.get((i, j), ()):
                    key = (cell.index, other.index)
                    if key in seen:
                        continue
                    seen.add(key)
                    dx = min(cell.x1, other.x1) - max(cell.x, other.x)
                    dy = min(cell.y1, other.y1) - max(cell.y, other.y)
                    if dx > QUANTUM and dy > QUANTUM:
                        pairs.append((cell.index, other.index, dx * dy))
    return pairs


def oracle_arrays(plan, mode, refine, die_resolution, spreader_resolution):
    """The network arrays, assembled cell by cell and edge by edge."""
    props = ThermalProperties()
    if mode == "component":
        die_rects = []
        for comp in plan.components:
            n = refine if (comp.critical and refine > 1) else 1
            die_rects += _subdivide(comp.x, comp.y, comp.width, comp.height, n, n)
    else:
        die_rects = _subdivide(0.0, 0.0, plan.width, plan.height, *die_resolution)
    spreader_rects = _subdivide(
        0.0, 0.0, plan.width, plan.height, *spreader_resolution
    )
    cells = [
        Cell(len(die_rects) * (not die) + k, die, *rect,
             props.die_thickness if die else props.spreader_thickness)
        for die, rects in ((True, die_rects), (False, spreader_rects))
        for k, rect in enumerate(rects)
    ]
    die = [c for c in cells if c.die]
    spreader = [c for c in cells if not c.die]
    lateral = _lateral_adjacency(die) + _lateral_adjacency(spreader)
    vertical = _rect_overlaps(die, spreader)
    cover = {}
    for comp in plan.components:
        if comp.is_filler:
            continue
        cover[comp.name] = [
            (cell.index, area)
            for cell in die
            if (area := comp.overlap_area(cell.x, cell.y, cell.x1, cell.y1))
            > QUANTUM * QUANTUM
        ]

    die_m, spreader_m = props.die_material, props.spreader_material
    out = {
        "capacitance": np.array([
            (die_m if c.die else spreader_m).volumetric_heat
            * (c.area * c.thickness)
            for c in cells
        ]),
        "nonlinear_cells": np.flatnonzero(
            np.array([c.die and die_m.nonlinear for c in cells], dtype=bool)
        ),
    }
    edge_i, edge_j, geom_i, geom_j = [], [], [], []
    for i, j, face, axis in lateral:
        ci, cj = cells[i], cells[j]
        edge_i.append(i)
        edge_j.append(j)
        geom_i.append(((ci.width if axis == "x" else ci.height) / 2.0)
                      / (face * ci.thickness))
        geom_j.append(((cj.width if axis == "x" else cj.height) / 2.0)
                      / (face * cj.thickness))
    for i, j, area in vertical:
        edge_i.append(i)
        edge_j.append(j)
        geom_i.append((cells[i].thickness / 2.0) / area)
        geom_j.append((cells[j].thickness / 2.0) / area)
    out["edge_i"] = np.array(edge_i, dtype=np.int64)
    out["edge_j"] = np.array(edge_j, dtype=np.int64)
    out["geom_i"] = np.array(geom_i)
    out["geom_j"] = np.array(geom_j)

    g_ambient = np.zeros(len(cells))
    k_cu = spreader_m.k(300.0)
    for cell in spreader:
        r_conv = props.package_to_air_resistance * (plan.area / cell.area)
        r_half = (cell.thickness / 2.0) / (k_cu * cell.area)
        g_ambient[cell.index] = 1.0 / (r_conv + r_half)
    out["g_ambient"] = g_ambient

    comp_area = {comp.name: comp.area for comp in plan.components}
    inj, read = ([], [], []), ([], [], [])
    for k, name in enumerate(cover):
        total = sum(area for _, area in cover[name])
        for cell_index, overlap in cover[name]:
            for target, row, col, value in (
                (inj, cell_index, k, overlap / comp_area[name]),
                (read, k, cell_index, overlap / total),
            ):
                target[0].append(row)
                target[1].append(col)
                target[2].append(value)
    n, m = len(cells), len(cover)
    for label, (rows, cols, data), shape in (
        ("injection", inj, (n, m)), ("readout", read, (m, n)),
    ):
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=shape)
        out[f"{label}.data"] = matrix.data
        out[f"{label}.indices"] = matrix.indices
        out[f"{label}.indptr"] = matrix.indptr
    out["component_names"] = tuple(cover)
    return out


def network_arrays(network):
    out = {
        name: getattr(network, name)
        for name in ("capacitance", "nonlinear_cells", "edge_i", "edge_j",
                     "geom_i", "geom_j", "g_ambient")
    }
    for label, matrix in (("injection", network._injection),
                          ("readout", network._readout)):
        out[f"{label}.data"] = matrix.data
        out[f"{label}.indices"] = matrix.indices
        out[f"{label}.indptr"] = matrix.indptr
    out["component_names"] = network.component_names
    return out


def guillotine_floorplan(seed):
    """A random tiling of a random die by recursive cuts, some on a
    1/8 lattice (so faces line up and hang), some anywhere."""
    rng = random.Random(seed)
    width = rng.uniform(1e-3, 8e-3)
    height = rng.uniform(1e-3, 8e-3)
    rects = [(0.0, 0.0, width, height)]
    for _ in range(rng.randint(0, 11)):
        x, y, w, h = rects.pop(rng.randrange(len(rects)))
        f = rng.choice([rng.randint(1, 7) / 8, rng.uniform(0.2, 0.8)])
        if rng.random() < w / (w + h):
            cut = x + f * w
            rects += [(x, y, cut - x, h), (cut, y, x + w - cut, h)]
        else:
            cut = y + f * h
            rects += [(x, y, w, cut - y), (x, cut, w, y + h - cut)]
    components = [
        FloorplanComponent(
            f"c{k}", *rect,
            power_class=None if k and rng.random() < 0.25 else "arm7",
            critical=rng.random() < 0.4,
        )
        for k, rect in enumerate(rects)
    ]
    return Floorplan(name=f"guillotine{seed}", width=width, height=height,
                     components=components)


def assert_same_bytes(actual, expected):
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        if key == "component_names":
            assert actual[key] == value
            continue
        got = np.asarray(actual[key])
        assert got.dtype == value.dtype, key
        assert got.shape == value.shape, key
        assert got.tobytes() == value.tobytes(), key


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(["component", "uniform"]),
    refine=st.integers(min_value=1, max_value=3),
    die_resolution=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    spreader_resolution=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_array_assembly_matches_the_loops_bytewise(
    seed, mode, refine, die_resolution, spreader_resolution
):
    plan = guillotine_floorplan(seed)
    grid = build_grid(plan, mode=mode, refine_critical=refine,
                      die_resolution=die_resolution,
                      spreader_resolution=spreader_resolution)
    assert_same_bytes(
        network_arrays(RCNetwork(grid)),
        oracle_arrays(plan, mode, refine, die_resolution, spreader_resolution),
    )
