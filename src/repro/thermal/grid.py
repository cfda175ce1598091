"""Cell-grid generation over die + spreader (Figure 3a).

The die and the heat spreader are divided into box-shaped cells of
several sizes: small cells at the critical points (component mode with
refined rectangles, or a fine uniform grid) and larger ones elsewhere.
Each cell later gets five thermal resistances and one capacitance in
:mod:`repro.thermal.rc_network`.

Two generation modes:

* ``component`` — one cell per floorplan rectangle (components and
  filler), with ``critical`` rectangles optionally subdivided
  ``refine x refine``; this produces the paper's coarse co-emulation
  grids (~28 cells for the Figure 4 floorplans).
* ``uniform`` — an ``nx x ny`` uniform grid per layer; this produces the
  fine grids (the paper's 660-cell solver-performance claim).

Adjacency handles hanging nodes (a large cell bordering several small
ones) by computing per-pair face overlaps.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from repro.thermal.properties import ThermalProperties

LAYER_DIE = "die"
LAYER_SPREADER = "spreader"

_QUANTUM = 1e-10  # 0.1 nm: coordinate quantum for face matching


def _q(coord):
    return round(coord / _QUANTUM)


@dataclass
class Cell:
    """One box-shaped thermal cell."""

    index: int
    layer: str
    x: float
    y: float
    width: float
    height: float
    thickness: float
    component: str = None  # dominant floorplan component (reporting)

    @property
    def area(self):
        return self.width * self.height

    @property
    def volume(self):
        return self.area * self.thickness

    @property
    def x1(self):
        return self.x + self.width

    @property
    def y1(self):
        return self.y + self.height


@dataclass
class Grid:
    """The generated cell grid plus its adjacency structure."""

    floorplan: object
    properties: ThermalProperties
    cells: list = field(default_factory=list)
    die_cells: list = field(default_factory=list)
    spreader_cells: list = field(default_factory=list)
    # (i, j, shared_face_length, axis): lateral neighbour pairs.
    lateral_edges: list = field(default_factory=list)
    # (i, j, overlap_area): die cell <-> spreader cell pairs.
    vertical_edges: list = field(default_factory=list)
    # component name -> [(die cell index, overlap area)]
    component_cover: dict = field(default_factory=dict)

    @property
    def num_cells(self):
        return len(self.cells)

    def cells_of(self, layer):
        indices = self.die_cells if layer == LAYER_DIE else self.spreader_cells
        return [self.cells[i] for i in indices]

    def summary(self):
        return {
            "cells": self.num_cells,
            "die_cells": len(self.die_cells),
            "spreader_cells": len(self.spreader_cells),
            "lateral_edges": len(self.lateral_edges),
            "vertical_edges": len(self.vertical_edges),
        }


def _subdivide(x, y, w, h, nx, ny):
    """Split a rectangle into an ``nx x ny`` array of sub-rectangles."""
    rects = []
    for i in range(nx):
        for j in range(ny):
            rects.append((x + i * w / nx, y + j * h / ny, w / nx, h / ny))
    return rects


def _component_rects(floorplan, refine):
    """(rect, component name) list for component mode."""
    rects = []
    for comp in floorplan.components:
        n = refine if (comp.critical and refine > 1) else 1
        for rect in _subdivide(comp.x, comp.y, comp.width, comp.height, n, n):
            rects.append((rect, None if comp.is_filler else comp.name))
    return rects


def _uniform_rects(width, height, nx, ny):
    return [(rect, None) for rect in _subdivide(0.0, 0.0, width, height, nx, ny)]


def _lateral_adjacency(cells):
    """Face-sharing pairs within one layer, with shared face lengths.

    Uses edge-coordinate bucketing: a cell's right edge can only touch
    left edges at the same x coordinate (and likewise in y), so only
    those few candidates are checked for overlap.
    """
    edges = []
    left = defaultdict(list)  # quantized x0 -> cells
    bottom = defaultdict(list)  # quantized y0 -> cells
    for cell in cells:
        left[_q(cell.x)].append(cell)
        bottom[_q(cell.y)].append(cell)
    def _candidates(buckets, coord):
        # Look in the quantum bucket and its neighbours so values that
        # round across a bucket boundary are still matched.
        k = _q(coord)
        for key in (k - 1, k, k + 1):
            yield from buckets.get(key, ())

    for cell in cells:
        for other in _candidates(left, cell.x1):
            if abs(cell.x1 - other.x) > 2 * _QUANTUM:
                continue
            overlap = min(cell.y1, other.y1) - max(cell.y, other.y)
            if overlap > _QUANTUM:
                edges.append((cell.index, other.index, overlap, "x"))
        for other in _candidates(bottom, cell.y1):
            if abs(cell.y1 - other.y) > 2 * _QUANTUM:
                continue
            overlap = min(cell.x1, other.x1) - max(cell.x, other.x)
            if overlap > _QUANTUM:
                edges.append((cell.index, other.index, overlap, "y"))
    return edges


def _rect_overlaps(cells_a, cells_b):
    """(a, b, overlap_area) pairs across two layers via spatial hashing."""
    if not cells_a or not cells_b:
        return []
    bin_size = max(max(c.width for c in cells_b), max(c.height for c in cells_b))
    bins = defaultdict(list)
    for cell in cells_b:
        i0, i1 = int(cell.x / bin_size), int(cell.x1 / bin_size)
        j0, j1 = int(cell.y / bin_size), int(cell.y1 / bin_size)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                bins[(i, j)].append(cell)
    pairs = []
    seen = set()
    for cell in cells_a:
        i0, i1 = int(cell.x / bin_size), int(cell.x1 / bin_size)
        j0, j1 = int(cell.y / bin_size), int(cell.y1 / bin_size)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for other in bins.get((i, j), ()):
                    key = (cell.index, other.index)
                    if key in seen:
                        continue
                    seen.add(key)
                    dx = min(cell.x1, other.x1) - max(cell.x, other.x)
                    dy = min(cell.y1, other.y1) - max(cell.y, other.y)
                    if dx > _QUANTUM and dy > _QUANTUM:
                        pairs.append((cell.index, other.index, dx * dy))
    return pairs


#: The two die knobs' defaults; each grid mode reads only one of them.
DEFAULT_REFINE_CRITICAL = 1
DEFAULT_DIE_RESOLUTION = (8, 8)


def used_die_knobs(mode, refine_critical, die_resolution):
    """``(refine_critical, die_resolution)`` with the one ``mode`` never
    reads at its default, so the keys built from them (network structure,
    scenario digests) do not split on a value no grid ever sees."""
    if mode == "component":
        die_resolution = DEFAULT_DIE_RESOLUTION
    elif mode == "uniform":
        refine_critical = DEFAULT_REFINE_CRITICAL
    return refine_critical, tuple(die_resolution)


def build_grid(
    floorplan,
    properties=None,
    mode="component",
    refine_critical=DEFAULT_REFINE_CRITICAL,
    die_resolution=DEFAULT_DIE_RESOLUTION,
    spreader_resolution=(4, 4),
):
    """Generate a :class:`Grid` over ``floorplan``.

    ``mode='component'`` uses the floorplan rectangles as die cells
    (``refine_critical`` subdivides critical components); the spreader is
    covered by a ``spreader_resolution`` uniform grid.  ``mode='uniform'``
    uses ``die_resolution`` for the die instead.
    """
    props = properties or ThermalProperties()
    if mode == "component":
        die_rects = _component_rects(floorplan, refine_critical)
    elif mode == "uniform":
        die_rects = _uniform_rects(floorplan.width, floorplan.height, *die_resolution)
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    spreader_rects = _uniform_rects(
        floorplan.width, floorplan.height, *spreader_resolution
    )

    grid = Grid(floorplan=floorplan, properties=props)
    for (x, y, w, h), comp_name in die_rects:
        cell = Cell(
            index=len(grid.cells),
            layer=LAYER_DIE,
            x=x,
            y=y,
            width=w,
            height=h,
            thickness=props.die_thickness,
            component=comp_name,
        )
        grid.cells.append(cell)
        grid.die_cells.append(cell.index)
    for (x, y, w, h), _ in spreader_rects:
        cell = Cell(
            index=len(grid.cells),
            layer=LAYER_SPREADER,
            x=x,
            y=y,
            width=w,
            height=h,
            thickness=props.spreader_thickness,
        )
        grid.cells.append(cell)
        grid.spreader_cells.append(cell.index)

    die = [grid.cells[i] for i in grid.die_cells]
    spreader = [grid.cells[i] for i in grid.spreader_cells]
    grid.lateral_edges = _lateral_adjacency(die) + _lateral_adjacency(spreader)
    grid.vertical_edges = _rect_overlaps(die, spreader)

    # Component coverage (power injection + sensor readout weights).
    for comp in floorplan.components:
        if comp.is_filler:
            continue
        cover = []
        for cell in die:
            area = comp.overlap_area(cell.x, cell.y, cell.x1, cell.y1)
            if area > _QUANTUM * _QUANTUM:
                cover.append((cell.index, area))
        if not cover:
            raise ValueError(
                f"grid over {floorplan.name}: component {comp.name} covered "
                f"by no die cell"
            )
        grid.component_cover[comp.name] = cover
        # Tag uniform-mode cells with their dominant component.
        for index, area in cover:
            cell = grid.cells[index]
            if cell.component is None and area >= 0.5 * cell.area:
                cell.component = comp.name
    return grid
