"""Floorplans: named rectangles bound to power classes (Figure 4).

A floorplan tiles the die exactly with component rectangles plus named
filler (empty silicon) rectangles; exact tiling lets the grid generator
produce both the paper's coarse 28-cell co-emulation grids and fine
multi-hundred-cell grids from the same description.

The two experiment floorplans of Figure 4 are built here:
``floorplan_4xarm7`` (4 ARM7 cores at 100 MHz) and ``floorplan_4xarm11``
(4 ARM11 cores at 500 MHz), both in 130 nm.  The paper does not publish
coordinates, so the layouts place the cores in the four corners with
their caches and private memories alongside and the shared memory plus
the four NoC switches in the centre, as Figure 4 shows.  Component areas
are derived from Table 1 (area = max power / power density).

``activity_source`` ties each component to the platform statistics that
drive its power: ``("core", i)``, ``("icache", i)``, ``("dcache", i)``,
``("private_mem", i)``, ``("shared_mem", None)``,
``("noc_switch", switch_name)`` or ``None`` for passive silicon.

:data:`FLOORPLANS` names the factories, so a scenario spec can say
``"floorplan": "4xarm11"`` or, for a parameterized entry like
``"hetero"``, ``{"name": "hetero", "params": {"big": 2, "little": 2}}``.
"""

import math
from dataclasses import dataclass

from repro.util.registry import Registry
from repro.util.units import MM2

FLOORPLANS = Registry("floorplan")

#: The length tolerance of :meth:`Floorplan.validate` (metres): the
#: grid's face rule (:mod:`repro.thermal.grid`) joins two cells whose
#: edges are at most this far apart, and the bounds and overlap checks
#: use the same width.  Coverage is judged by summed area, so a wider
#: gap along a boundary shorter than the die's shorter side can still
#: validate without a face across it.
LENGTH_TOLERANCE = 2e-10


@dataclass(frozen=True)
class FloorplanComponent:
    """One axis-aligned rectangle of the floorplan (SI metres)."""

    name: str
    x: float
    y: float
    width: float
    height: float
    power_class: str = None  # key into the Table 1 power library
    activity_source: tuple = None
    critical: bool = False  # refine this rectangle in multi-resolution grids

    @property
    def area(self):
        return self.width * self.height

    @property
    def x1(self):
        return self.x + self.width

    @property
    def y1(self):
        return self.y + self.height

    @property
    def is_filler(self):
        return self.power_class is None

    def overlap_area(self, x0, y0, x1, y1):
        """Area of intersection with the rectangle [x0,x1] x [y0,y1]."""
        dx = min(self.x1, x1) - max(self.x, x0)
        dy = min(self.y1, y1) - max(self.y, y0)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy


@dataclass(frozen=True)
class Floorplan:
    """An exact rectangular tiling of the die.

    Immutable: ``components`` is stored as a tuple, so one floorplan
    object can be shared by every scenario of a batch that names it (see
    :class:`repro.scenario.runner.Runner`) without one changing it under
    another.
    """

    name: str
    width: float
    height: float
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        self.validate()
        object.__setattr__(self, "_fingerprint", (
            self.name,
            self.width,
            self.height,
            tuple(
                (c.name, c.x, c.y, c.width, c.height, c.power_class, c.critical)
                for c in self.components
            ),
        ))
        object.__setattr__(self, "_active_components", tuple(
            c for c in self.components if not c.is_filler
        ))

    @property
    def area(self):
        return self.width * self.height

    def component(self, name):
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(f"{self.name}: no component {name!r}")

    def fingerprint(self):
        """Hashable structural identity of the floorplan.

        Two floorplans with equal fingerprints produce identical grids
        and RC networks, so the fingerprint is the key under which
        :func:`repro.thermal.rc_network.network_for` shares assembly.
        Computed once, when the floorplan is made.
        """
        return self._fingerprint

    def active_components(self):
        """The non-filler components, in order; computed once."""
        return self._active_components

    def validate(self):
        """Check bounds, pairwise disjointness and exact coverage, all
        to :data:`LENGTH_TOLERANCE`: a component may overhang the die by
        at most that, two overlap when their intersection is wider and
        higher than that, and the summed areas may miss the die's by at
        most a strip that wide across the die's shorter side.

        Disjointness is a sweep in y: components are visited in order of
        their lower edge, and each is compared only with the earlier
        ones whose y-span it still meets.  A pair whose y-spans (or
        x-spans) at most touch, ``a.y1 <= b.y``, has a non-positive
        overlap height (or width), so skipping it never hides an
        overlap.  When several pairs overlap, the error names the first
        pair in component order.  Non-finite geometry is rejected first:
        NaN has no place in the y order.
        """
        tol = LENGTH_TOLERANCE
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate component names")
        total = 0.0
        for comp in self.components:
            if not all(map(math.isfinite,
                           (comp.x, comp.y, comp.width, comp.height))):
                raise ValueError(f"{self.name}/{comp.name}: non-finite geometry")
            if comp.width <= 0 or comp.height <= 0:
                raise ValueError(f"{self.name}/{comp.name}: non-positive size")
            if (
                comp.x < -tol
                or comp.y < -tol
                or comp.x1 > self.width + tol
                or comp.y1 > self.height + tol
            ):
                raise ValueError(f"{self.name}/{comp.name}: outside the die")
            total += comp.area
        comps = self.components
        boxes = [(c.x, c.y, c.x1, c.y1) for c in comps]
        overlapping = []
        open_spans = []  # indices of earlier components still spanning y
        for j in sorted(range(len(comps)), key=lambda k: boxes[k][1]):
            x0, y0, x1, y1 = boxes[j]
            open_spans = [i for i in open_spans if boxes[i][3] > y0]
            for i in open_spans:
                if boxes[i][2] <= x0 or x1 <= boxes[i][0]:
                    continue  # x-spans at most touch: no overlap width
                bx0, by0, bx1, by1 = boxes[i]
                if (min(x1, bx1) - max(x0, bx0) > tol
                        and min(y1, by1) - max(y0, by0) > tol):
                    overlapping.append((i, j) if i < j else (j, i))
            open_spans.append(j)
        if overlapping:
            i, j = min(overlapping)
            raise ValueError(
                f"{self.name}: components {comps[i].name} and "
                f"{comps[j].name} overlap"
            )
        if abs(total - self.area) > tol * min(self.width, self.height):
            raise ValueError(
                f"{self.name}: tiling covers {total:.3e} m^2 of {self.area:.3e} m^2"
            )

    def summary(self):
        """Rows of (name, class, area mm^2, critical) for reports."""
        return [
            (c.name, c.power_class or "-", c.area / MM2, c.critical)
            for c in self.components
        ]


class _RowBuilder:
    """Builds an exactly tiled floorplan row by row.

    Each row is a horizontal strip of the die; items are placed left to
    right and ``gap`` inserts filler.  Any remaining width at the end of
    a row becomes filler automatically, so tiling is exact by
    construction.
    """

    def __init__(self, name, width):
        self.name = name
        self.width = width
        self.components = []
        self._y = 0.0
        self._fill_count = 0

    def row(self, height, items):
        x = 0.0
        for item in items:
            if isinstance(item, (int, float)):
                x = self._fill(x, x + item, height)
                continue
            comp_name, power_class, area, source, critical = item
            width = area / height
            if x + width > self.width + 1e-9:
                raise ValueError(
                    f"{self.name}: row at y={self._y:.4e} overflows the die "
                    f"({comp_name})"
                )
            self.components.append(
                FloorplanComponent(
                    name=comp_name,
                    x=x,
                    y=self._y,
                    width=width,
                    height=height,
                    power_class=power_class,
                    activity_source=source,
                    critical=critical,
                )
            )
            x += width
        self._fill(x, self.width, height)
        self._y += height

    def _fill(self, x0, x1, height):
        if x1 - x0 > 1e-9:
            self.components.append(
                FloorplanComponent(
                    name=f"fill{self._fill_count}",
                    x=x0,
                    y=self._y,
                    width=x1 - x0,
                    height=height,
                )
            )
            self._fill_count += 1
        return x1

    def build(self):
        return Floorplan(
            name=self.name, width=self.width, height=self._y, components=self.components
        )


def _corner_floorplan(name, core_class, core_area, die_width, core_row_h, cache_row_h):
    """Common Figure 4 structure: cores in the corners, caches and private
    memories alongside, shared memory and the four NoC switches centred."""
    from repro.power.library import DEFAULT_LIBRARY

    lib = DEFAULT_LIBRARY
    icache_area = lib.area("icache_8k_dm")
    dcache_area = lib.area("dcache_8k_2w")
    mem_area = lib.area("sram_32k")
    switch_area = lib.area("noc_switch")

    def core(i):
        return (f"{core_class}_{i}", core_class, core_area, ("core", i), True)

    def icache(i):
        return (f"icache_{i}", "icache_8k_dm", icache_area, ("icache", i), False)

    def dcache(i):
        return (f"dcache_{i}", "dcache_8k_2w", dcache_area, ("dcache", i), False)

    def privmem(i):
        return (f"privmem_{i}", "sram_32k", mem_area, ("private_mem", i), False)

    def switch(i):
        return (f"switch_{i}", "noc_switch", switch_area, ("noc_switch", f"sw{i}"), False)

    shared = ("shared_mem", "sram_32k", mem_area, ("shared_mem", None), False)

    b = _RowBuilder(name, die_width)
    gap = 0.2e-3
    # Top strip: cores 0 and 1 in the corners.
    b.row(core_row_h, [core(0), icache(0), privmem(0), gap, privmem(1), icache(1), core(1)])
    # Upper middle: the two top D-caches around the shared memory.
    b.row(cache_row_h, [dcache(0), gap, shared, switch(0), switch(1), gap, dcache(1)])
    # Lower middle: bottom D-caches around the remaining switches.
    b.row(cache_row_h, [dcache(2), gap, switch(2), switch(3), gap, dcache(3)])
    # Bottom strip: cores 2 and 3 in the corners.
    b.row(core_row_h, [core(2), icache(2), privmem(2), gap, privmem(3), icache(3), core(3)])
    return b.build()


@FLOORPLANS.register("4xarm7")
def floorplan_4xarm7():
    """Figure 4(a): 4 ARM7 cores at 100 MHz, 130 nm."""
    from repro.power.library import DEFAULT_LIBRARY

    core_area = DEFAULT_LIBRARY.area("arm7")
    return _corner_floorplan(
        name="4xarm7",
        core_class="arm7",
        core_area=core_area,
        die_width=4.9e-3,
        core_row_h=0.8e-3,
        cache_row_h=1.9e-3,
    )


@FLOORPLANS.register("4xarm11")
def floorplan_4xarm11():
    """Figure 4(b): 4 ARM11 cores at 500 MHz, 130 nm."""
    from repro.power.library import DEFAULT_LIBRARY

    core_area = DEFAULT_LIBRARY.area("arm11")
    return _corner_floorplan(
        name="4xarm11",
        core_class="arm11",
        core_area=core_area,
        die_width=6.4e-3,
        core_row_h=1.6e-3,
        cache_row_h=1.9e-3,
    )


@FLOORPLANS.register("hetero")
def floorplan_hetero(big=2, little=2, big_class="arm11", little_class="arm7"):
    """A parameterized big.LITTLE-style floorplan for heterogeneous DSE.

    ``big`` big-class cores occupy one strip per core at the top of the
    die, ``little`` little-class cores one strip per core at the bottom,
    each with its I-cache and private memory alongside; the shared
    memory and a bus region sit in the centre.  Core activity indices
    follow platform order: big cores first (``("core", 0..big-1)``),
    then little cores — the :mod:`repro.dse` space generator builds its
    :class:`~repro.mpsoc.platform.MPSoCConfig` core lists in the same
    order.

    The name (hence :meth:`Floorplan.fingerprint` and the shared
    RC-network structure cache) is deterministic per (counts, classes),
    so a sweep over thousands of configs with the same core mix shares
    one grid assembly.
    """
    from repro.power.library import DEFAULT_LIBRARY

    if big < 0 or little < 0 or big + little < 1:
        raise ValueError(
            f"floorplan_hetero needs non-negative core counts with at "
            f"least one core, got big={big}, little={little}"
        )
    lib = DEFAULT_LIBRARY
    icache_area = lib.area("icache_8k_dm")
    mem_area = lib.area("sram_32k")
    bus_area = lib.area("noc_switch")  # a bus region, switch-class sized

    name = f"hetero_{big}x{big_class}_{little}x{little_class}"
    gap = 0.2e-3
    side_area = icache_area + mem_area

    def core_row(height, core_area):
        # Row width: one core plus its I-cache and private memory.
        return (core_area + side_area) / height + 3 * gap

    big_area = lib.area(big_class)
    little_area = lib.area(little_class)
    big_h = max(0.8e-3, (big_area / 2.0) ** 0.5)
    little_h = max(0.6e-3, (little_area / 2.0) ** 0.5)
    centre_h = 0.9e-3
    die_width = max(
        core_row(big_h, big_area) if big else 0.0,
        core_row(little_h, little_area) if little else 0.0,
        (mem_area + bus_area) / centre_h + 3 * gap,
    )

    b = _RowBuilder(name, die_width)
    for i in range(big):
        b.row(big_h, [
            (f"{big_class}_{i}", big_class, big_area, ("core", i), True),
            gap,
            (f"icache_{i}", "icache_8k_dm", icache_area, ("icache", i), False),
            gap,
            (f"privmem_{i}", "sram_32k", mem_area, ("private_mem", i), False),
        ])
    b.row(centre_h, [
        ("shared_mem", "sram_32k", mem_area, ("shared_mem", None), False),
        gap,
        ("bus", "noc_switch", bus_area, ("bus", None), False),
    ])
    for j in range(little):
        i = big + j
        b.row(little_h, [
            (f"{little_class}_{i}", little_class, little_area, ("core", i), True),
            gap,
            (f"icache_{i}", "icache_8k_dm", icache_area, ("icache", i), False),
            gap,
            (f"privmem_{i}", "sram_32k", mem_area, ("private_mem", i), False),
        ])
    return b.build()

