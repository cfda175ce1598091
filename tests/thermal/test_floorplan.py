"""Floorplan validation and the two Figure 4 floorplans."""

import pytest

from repro.power.library import DEFAULT_LIBRARY
from repro.thermal.floorplan import (
    FLOORPLANS,
    LENGTH_TOLERANCE,
    Floorplan,
    FloorplanComponent,
    floorplan_4xarm11,
    floorplan_4xarm7,
)
from repro.thermal.grid import _FACE_GAP, build_grid


def comp(name, x, y, w, h, power_class=None):
    return FloorplanComponent(
        name=name, x=x, y=y, width=w, height=h, power_class=power_class
    )


def test_exact_tiling_accepted():
    Floorplan(
        name="t",
        width=2.0,
        height=1.0,
        components=[comp("a", 0, 0, 1, 1, "arm7"), comp("b", 1, 0, 1, 1)],
    )


def test_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        Floorplan(
            name="t",
            width=2.0,
            height=1.0,
            components=[comp("a", 0, 0, 1.5, 1), comp("b", 1, 0, 1, 1)],
        )


def test_out_of_bounds_rejected():
    with pytest.raises(ValueError, match="outside"):
        Floorplan(name="t", width=1.0, height=1.0, components=[comp("a", 0.5, 0, 1, 1)])


def test_incomplete_coverage_rejected():
    with pytest.raises(ValueError, match="covers"):
        Floorplan(name="t", width=2.0, height=1.0, components=[comp("a", 0, 0, 1, 1)])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Floorplan(
            name="t",
            width=2.0,
            height=1.0,
            components=[comp("a", 0, 0, 1, 1), comp("a", 1, 0, 1, 1)],
        )


def test_overlap_area():
    c = comp("a", 0, 0, 2, 2)
    assert c.overlap_area(1, 1, 3, 3) == pytest.approx(1.0)
    assert c.overlap_area(5, 5, 6, 6) == 0.0


@pytest.mark.parametrize("factory, core_class", [
    (floorplan_4xarm7, "arm7"),
    (floorplan_4xarm11, "arm11"),
])
def test_paper_floorplans(factory, core_class):
    plan = factory()
    plan.validate()
    active = plan.active_components()
    cores = [c for c in active if c.power_class == core_class]
    assert len(cores) == 4
    assert all(c.critical for c in cores)
    # Four I-caches, four D-caches, four private memories, one shared.
    assert sum(1 for c in active if c.power_class == "icache_8k_dm") == 4
    assert sum(1 for c in active if c.power_class == "dcache_8k_2w") == 4
    assert sum(1 for c in active if c.power_class == "sram_32k") == 5
    assert sum(1 for c in active if c.power_class == "noc_switch") == 4
    # Component areas come from Table 1 (area = power / density).
    for c in cores:
        assert c.area == pytest.approx(DEFAULT_LIBRARY.area(core_class), rel=1e-6)


def test_paper_floorplans_cell_count_near_28():
    # The paper's co-emulation floorplan uses 28 thermal cells; ours tile
    # to a comparable count (components + filler).
    for plan in (floorplan_4xarm7(), floorplan_4xarm11()):
        assert 25 <= len(plan.components) <= 35


def test_activity_sources_bound():
    plan = floorplan_4xarm11()
    sources = {c.activity_source for c in plan.active_components()}
    for index in range(4):
        assert ("core", index) in sources
        assert ("icache", index) in sources
        assert ("dcache", index) in sources
        assert ("private_mem", index) in sources
    assert ("shared_mem", None) in sources


def test_component_lookup():
    plan = floorplan_4xarm7()
    assert plan.component("arm7_0").power_class == "arm7"
    with pytest.raises(KeyError):
        plan.component("bogus")


def test_summary_rows():
    plan = floorplan_4xarm7()
    rows = plan.summary()
    assert len(rows) == len(plan.components)
    assert all(len(row) == 4 for row in rows)


# -- one length tolerance, the grid's face rule -------------------------------

def halves(kind, offset):
    """Two halves of a 2 x 1 mm die, misaligned by ``offset`` metres:
    the left one wider (``overlap``) or narrower (``gap``), or the right
    one shifted right (``overhang``: a gap and a die overrun)."""
    left, right_x = 1e-3, 1e-3
    if kind == "overlap":
        left += offset
    elif kind == "gap":
        left -= offset
    else:
        right_x += offset
    return Floorplan("halves", 2e-3, 1e-3, [
        FloorplanComponent("left", 0.0, 0.0, left, 1e-3,
                           "arm11", ("core", 0)),
        FloorplanComponent("right", right_x, 0.0, 1e-3, 1e-3,
                           "arm11", ("core", 1)),
    ])


def test_the_length_tolerance_is_the_grids_face_rule():
    assert LENGTH_TOLERANCE == _FACE_GAP == 2e-10


@pytest.mark.parametrize("kind", ["overlap", "gap", "overhang"])
@pytest.mark.parametrize("offset", [1e-9, 1.9e-9, 5e-10])
def test_nanometre_misalignments_are_rejected(kind, offset):
    with pytest.raises(ValueError, match="overlap|covers|outside"):
        halves(kind, offset)


@pytest.mark.parametrize("kind", ["overlap", "gap", "overhang"])
@pytest.mark.parametrize("offset", [1e-10, 5e-11, 1e-12])
def test_sub_tolerance_misalignments_validate_and_share_a_face(kind, offset):
    grid = build_grid(halves(kind, offset), spreader_resolution=(1, 1))
    assert (grid.lateral_i < grid.num_die).sum() == 1
    assert grid.lateral_face[0] == pytest.approx(1e-3)


def _registered():
    cases = [(name, {}) for name in FLOORPLANS.names() if name != "hetero"]
    cases += [("hetero", {"big": big, "little": little})
              for big in range(7) for little in range(7) if big + little]
    return cases


@pytest.mark.parametrize("name,params", _registered())
def test_every_registered_floorplan_validates(name, params):
    plan = FLOORPLANS.get(name)(**params)
    plan.validate()
    assert plan.components
