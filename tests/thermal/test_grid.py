"""Grid generation tests: modes, adjacency, multi-resolution, coverage."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.thermal.calibration import uniform_floorplan
from repro.thermal.floorplan import (
    Floorplan,
    FloorplanComponent,
    floorplan_4xarm7,
    floorplan_4xarm11,
)
from repro.thermal.grid import build_grid


def test_component_mode_one_cell_per_rect():
    plan = floorplan_4xarm7()
    grid = build_grid(plan, mode="component", spreader_resolution=(2, 2))
    assert len(grid.die_cells) == len(plan.components)
    assert len(grid.spreader_cells) == 4


def test_uniform_mode_cell_counts():
    plan = uniform_floorplan()
    grid = build_grid(
        plan, mode="uniform", die_resolution=(5, 4), spreader_resolution=(3, 2)
    )
    assert len(grid.die_cells) == 20
    assert len(grid.spreader_cells) == 6
    assert grid.num_cells == 26


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_grid(uniform_floorplan(), mode="fancy")


def test_refine_critical_subdivides():
    plan = floorplan_4xarm7()
    base = build_grid(plan, mode="component")
    refined = build_grid(plan, mode="component", refine_critical=2)
    critical = sum(1 for c in plan.components if c.critical)
    assert len(refined.die_cells) == len(base.die_cells) + critical * 3


def test_uniform_grid_adjacency_counts():
    plan = uniform_floorplan()
    nx, ny = 4, 3
    grid = build_grid(
        plan, mode="uniform", die_resolution=(nx, ny), spreader_resolution=(nx, ny)
    )
    # Per layer: nx*(ny-1) + (nx-1)*ny internal face pairs.
    per_layer = nx * (ny - 1) + (nx - 1) * ny
    assert len(grid.lateral_i) == 2 * per_layer
    # Aligned grids: one vertical edge per column pair.
    assert len(grid.vertical_i) == nx * ny


def test_fine_grid_cells_carry_about_five_resistances():
    """Figure 3: an interior cell has four lateral resistances and one
    vertical; boundary cells have fewer, so on the fine 18x18 grid the
    mean sits just below five."""
    grid = build_grid(
        floorplan_4xarm11(),
        mode="uniform",
        die_resolution=(18, 18),
        spreader_resolution=(18, 18),
    )
    per_cell = 2 * (len(grid.lateral_i) + len(grid.vertical_i))
    assert 3.5 < per_cell / grid.num_cells < 5.5


def test_hanging_nodes_multiple_neighbours():
    # One coarse cell next to two fine cells: the coarse face must couple
    # to both.
    plan = Floorplan(
        name="t",
        width=2.0e-3,
        height=1.0e-3,
        components=[
            FloorplanComponent("coarse", 0, 0, 1e-3, 1e-3, "arm7", ("core", 0)),
            FloorplanComponent(
                "fine", 1e-3, 0, 1e-3, 1e-3, "arm11", ("core", 1), critical=True
            ),
        ],
    )
    grid = build_grid(plan, mode="component", refine_critical=2,
                      spreader_resolution=(1, 1))
    coarse = grid.component_names.index("coarse")
    (coarse_index,) = grid.cover_cells[
        grid.cover_indptr[coarse]:grid.cover_indptr[coarse + 1]
    ]
    partners = (grid.lateral_i == coarse_index) | (grid.lateral_j == coarse_index)
    assert partners.sum() == 2  # two fine half-cells share the face


def test_component_cover_complete_and_exact():
    plan = floorplan_4xarm7()
    grid = build_grid(plan, mode="uniform", die_resolution=(12, 12))
    for k, comp in enumerate(plan.active_components()):
        assert grid.component_names[k] == comp.name
        cover = slice(grid.cover_indptr[k], grid.cover_indptr[k + 1])
        total = grid.cover_areas[cover].sum()
        assert total == pytest.approx(comp.area, rel=1e-9)


def test_cells_geometry():
    plan = uniform_floorplan()
    grid = build_grid(plan, mode="uniform", die_resolution=(2, 2),
                      spreader_resolution=(2, 2))
    assert (grid.area > 0).all()
    props = grid.properties
    assert (grid.thickness[grid.die_cells] == props.die_thickness).all()
    assert (
        grid.thickness[grid.spreader_cells] == props.spreader_thickness
    ).all()


def test_summary():
    grid = build_grid(uniform_floorplan(), mode="uniform", die_resolution=(3, 3))
    summary = grid.summary()
    assert summary["cells"] == summary["die_cells"] + summary["spreader_cells"]
    assert summary["lateral_edges"] > 0
    assert summary["vertical_edges"] > 0


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=6),
    ny=st.integers(min_value=1, max_value=6),
)
def test_uniform_areas_tile_the_die(nx, ny):
    """Property: cell areas in each layer sum to the die area."""
    plan = uniform_floorplan()
    grid = build_grid(
        plan, mode="uniform", die_resolution=(nx, ny), spreader_resolution=(2, 2)
    )
    die_area = grid.area[grid.die_cells].sum()
    spread_area = grid.area[grid.spreader_cells].sum()
    assert die_area == pytest.approx(plan.area, rel=1e-9)
    assert spread_area == pytest.approx(plan.area, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(refine=st.integers(min_value=1, max_value=3))
def test_component_mode_tiles_exactly(refine):
    plan = floorplan_4xarm7()
    grid = build_grid(plan, mode="component", refine_critical=refine)
    die_area = grid.area[grid.die_cells].sum()
    assert die_area == pytest.approx(plan.area, rel=1e-9)


@pytest.mark.parametrize("offset", [1.0e-10, 1.6e-10, 1.9e-10, -1.6e-10])
def test_faces_offset_by_up_to_two_quanta_are_shared(offset):
    """Two halves of a 2 x 1 mm die overlapping (or, negative, parted)
    by up to 0.2 nm still share their face, whichever 0.1 nm buckets
    their edges round into."""
    plan = Floorplan(
        name="halves",
        width=2e-3,
        height=1e-3,
        components=[
            FloorplanComponent("left", 0.0, 0.0, 1e-3 + offset, 1e-3,
                               "arm11", ("core", 0)),
            FloorplanComponent("right", 1e-3, 0.0, 1e-3, 1e-3,
                               "arm11", ("core", 1)),
        ],
    )
    grid = build_grid(plan, spreader_resolution=(1, 1))
    assert (grid.lateral_i < grid.num_die).sum() == 1
    assert grid.lateral_x[0]
    assert grid.lateral_face[0] == pytest.approx(1e-3)


def test_faces_offset_by_more_than_two_quanta_are_not_shared(monkeypatch):
    """The face rule on its own: a 0.25 nm overlap, which a floorplan
    no longer validates with, is built with validation switched off."""
    components = [
        FloorplanComponent("left", 0.0, 0.0, 1e-3 + 2.5e-10, 1e-3,
                           "arm11", ("core", 0)),
        FloorplanComponent("right", 1e-3, 0.0, 1e-3, 1e-3,
                           "arm11", ("core", 1)),
    ]
    with pytest.raises(ValueError, match="overlap"):
        Floorplan("halves", 2e-3, 1e-3, components)
    monkeypatch.setattr(Floorplan, "validate", lambda plan: None)
    plan = Floorplan(name="halves", width=2e-3, height=1e-3,
                     components=components)
    grid = build_grid(plan, spreader_resolution=(1, 1))
    assert len(grid.lateral_i) == 0
