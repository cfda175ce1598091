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

A :class:`Grid` is arrays: cell coordinates, then neighbour pairs and
component cover computed from them in whole-array passes, with no
per-cell Python loop.  Adjacency handles hanging nodes (a large cell
bordering several small ones) by computing per-pair face overlaps:

* two cells of one layer share a face when one's right (top) edge lies
  within 2 quanta (0.2 nm) of the other's left (bottom) edge and their
  spans along that edge overlap by more than 1 quantum;
* a die cell and a spreader cell couple vertically when their overlap
  is more than 1 quantum wide and high;
* a component covers a die cell when their overlap has positive width
  and height and an area above 1 square quantum.
"""

from dataclasses import dataclass

import numpy as np

from repro.thermal.floorplan import LENGTH_TOLERANCE
from repro.thermal.properties import ThermalProperties

_QUANTUM = 1e-10  # 0.1 nm: coordinate quantum for face matching
#: Largest edge offset of two cells sharing a face (2 quanta), which is
#: also the length tolerance a floorplan validates to.
_FACE_GAP = LENGTH_TOLERANCE


@dataclass
class Grid:
    """The generated cell grid plus its adjacency structure, as arrays.

    Cells are indexed die first (``die_cells``), then spreader.  Per
    cell: ``x``, ``y`` (lower-left corner), ``width``, ``height`` and
    ``thickness``.  Per lateral edge (neighbours within one layer):
    ``lateral_i``, ``lateral_j``, the shared face length
    ``lateral_face`` and ``lateral_x``, true where the face is normal to
    x (``i`` left of ``j``; else ``i`` below ``j``).  Per vertical edge
    (die cell ``vertical_i`` over spreader cell ``vertical_j``):
    ``vertical_area``.  The die cells covering component
    ``component_names[k]`` are ``cover_cells[cover_indptr[k]:
    cover_indptr[k + 1]]``, ascending, with overlap areas
    ``cover_areas`` (CSR layout).
    """

    floorplan: object
    properties: ThermalProperties
    x: np.ndarray
    y: np.ndarray
    width: np.ndarray
    height: np.ndarray
    thickness: np.ndarray
    num_die: int
    lateral_i: np.ndarray
    lateral_j: np.ndarray
    lateral_face: np.ndarray
    lateral_x: np.ndarray
    vertical_i: np.ndarray
    vertical_j: np.ndarray
    vertical_area: np.ndarray
    component_names: tuple
    cover_indptr: np.ndarray
    cover_cells: np.ndarray
    cover_areas: np.ndarray

    @property
    def num_cells(self):
        return len(self.x)

    @property
    def die_cells(self):
        return np.arange(self.num_die)

    @property
    def spreader_cells(self):
        return np.arange(self.num_die, self.num_cells)

    @property
    def area(self):
        return self.width * self.height

    def summary(self):
        return {
            "cells": self.num_cells,
            "die_cells": self.num_die,
            "spreader_cells": self.num_cells - self.num_die,
            "lateral_edges": len(self.lateral_i),
            "vertical_edges": len(self.vertical_i),
        }


def _subdivide(x, y, w, h, nx, ny):
    """Split rectangles into ``nx x ny`` sub-rectangles each (arrays,
    one entry per rectangle; scalars broadcast), column by column:
    ``(x, y, w, h)`` arrays of the pieces, one rectangle's consecutive."""
    x, y, w, h, nx, ny = np.broadcast_arrays(
        *map(np.atleast_1d, (x, y, w, h, nx, ny))
    )
    pieces = nx * ny
    owner = np.repeat(np.arange(len(pieces)), pieces)
    k = np.arange(int(pieces.sum())) - (np.cumsum(pieces) - pieces)[owner]
    x, y, w, h, nx, ny = (a[owner] for a in (x, y, w, h, nx, ny))
    i, j = k // ny, k % ny
    return x + i * w / nx, y + j * h / ny, w / nx, h / ny


def _face_candidates(ends, starts):
    """``(a, b)`` with ``|ends[a] - starts[b]| <= 2`` quanta, ``a``
    ascending, from one sort of ``starts``."""
    order = np.argsort(starts, kind="stable")
    ordered = starts[order]
    # Search a wider window than the rule, then apply the rule exactly.
    lo = np.searchsorted(ordered, ends - 2 * _FACE_GAP)
    hi = np.searchsorted(ordered, ends + 2 * _FACE_GAP, side="right")
    count = hi - lo
    a = np.repeat(np.arange(len(ends)), count)
    # Pair t of cell a is starts[order[lo[a] + t - first pair of a]].
    shift = np.repeat(lo + count - np.cumsum(count), count)
    b = order[np.arange(len(a)) + shift]
    near = np.abs(ends[a] - starts[b]) <= _FACE_GAP
    return a[near], b[near]


def _lateral_adjacency(x, y, x1, y1):
    """Face-sharing pairs of one layer's cells: ``(i, j, face, is_x)``,
    from the cells' ``(x, y, x1, y1)`` boxes.

    Edges come cell by cell (``i`` ascending); within a cell, x faces
    before y faces, each by neighbour index.
    """
    pairs = []
    for is_x, (lo, hi, across_lo, across_hi) in (
        (True, (x, x1, y, y1)),
        (False, (y, y1, x, x1)),
    ):
        i, j = _face_candidates(hi, lo)
        face = (np.minimum(across_hi[i], across_hi[j])
                - np.maximum(across_lo[i], across_lo[j]))
        keep = face > _QUANTUM
        i, j = i[keep], j[keep]
        pairs.append((i, j, face[keep], np.full(len(i), is_x)))
    i, j, face, is_x = (np.concatenate(part) for part in zip(*pairs))
    order = np.lexsort((j, ~is_x, i))
    return i[order], j[order], face[order], is_x[order]


def _overlaps(ax, ay, ax1, ay1, bx, by, bx1, by1):
    """Overlap widths and heights of every ``(a, b)`` rectangle pair,
    as ``(len(a), len(b))`` arrays (non-positive where disjoint)."""
    dx = np.minimum(ax1[:, None], bx1) - np.maximum(ax[:, None], bx)
    dy = np.minimum(ay1[:, None], by1) - np.maximum(ay[:, None], by)
    return dx, dy


def _vertical_adjacency(die, spreader, spreader_width, spreader_height):
    """Overlapping (die, spreader) cell pairs: ``(i, j, area)``, from
    ``(x, y, x1, y1)`` boxes of each layer's cells.

    Pairs come die cell by die cell.  Within one, they are ordered by
    the first bin the two cells share on a square lattice as wide as the
    largest spreader cell side (bins column by column), then by spreader
    index: a bin-hashed overlap search yields them in this order, and
    the network's edge order, and so its bytes, keep it.
    """
    dx, dy = _overlaps(*die, *spreader)
    i, j = np.nonzero((dx > _QUANTUM) & (dy > _QUANTUM))
    area = dx[i, j] * dy[i, j]
    bin_size = max(spreader_width.max(), spreader_height.max())
    # A coordinate's bin truncates toward zero, as int() does.
    first_x = np.maximum((die[0] / bin_size).astype(np.int64)[i],
                         (spreader[0] / bin_size).astype(np.int64)[j])
    first_y = np.maximum((die[1] / bin_size).astype(np.int64)[i],
                         (spreader[1] / bin_size).astype(np.int64)[j])
    order = np.lexsort((j, first_y, first_x, i))
    return i[order], j[order], area[order]


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
    comps = floorplan.components
    cx, cy, cw, ch = (
        np.array([getattr(c, key) for c in comps], dtype=float)
        for key in ("x", "y", "width", "height")
    )
    if mode == "component":
        n = [refine_critical if c.critical and refine_critical > 1 else 1
             for c in comps]
        die = _subdivide(cx, cy, cw, ch, n, n)
    elif mode == "uniform":
        die = _subdivide(0.0, 0.0, floorplan.width, floorplan.height,
                         *die_resolution)
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    spreader = _subdivide(0.0, 0.0, floorplan.width, floorplan.height,
                          *spreader_resolution)
    num_die = len(die[0])
    x, y, width, height = (np.concatenate(pair) for pair in zip(die, spreader))
    thickness = np.repeat([props.die_thickness, props.spreader_thickness],
                          [num_die, len(x) - num_die])
    x1, y1 = x + width, y + height
    die_box, spreader_box = (
        (x[layer], y[layer], x1[layer], y1[layer])
        for layer in (slice(None, num_die), slice(num_die, None))
    )

    die_lateral = _lateral_adjacency(*die_box)
    i, j, face, is_x = _lateral_adjacency(*spreader_box)
    lateral = (np.concatenate(pair) for pair in zip(
        die_lateral, (i + num_die, j + num_die, face, is_x)
    ))
    vertical_i, vertical_j, vertical_area = _vertical_adjacency(
        die_box, spreader_box, width[num_die:], height[num_die:]
    )

    # Component coverage (power injection + sensor readout weights).
    active = [not c.is_filler for c in comps]
    dx, dy = _overlaps(cx[active], cy[active], (cx + cw)[active],
                       (cy + ch)[active], *die_box)
    area = dx * dy
    covered = (dx > 0) & (dy > 0) & (area > _QUANTUM * _QUANTUM)
    names = tuple(c.name for c in floorplan.active_components())
    counts = covered.sum(axis=1)
    if not counts.all():
        raise ValueError(
            f"grid over {floorplan.name}: component "
            f"{names[int(np.argmin(counts))]} covered by no die cell"
        )
    component, cover_cells = np.nonzero(covered)
    cover_indptr = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(counts, out=cover_indptr[1:])
    return Grid(
        floorplan, props, x, y, width, height, thickness, num_die,
        *lateral, vertical_i, vertical_j + num_die, vertical_area,
        names, cover_indptr, cover_cells, area[component, cover_cells],
    )
