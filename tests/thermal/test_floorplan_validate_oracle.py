"""The y-sweep ``Floorplan.validate`` against the pairwise scan it replaced.

``validate`` compares a component only with the earlier components
whose y-spans it still meets.  The oracle below is the original
quadratic check, kept here only as a reference, judged to the same
length tolerance: every pair is measured by the width and height of its
intersection.  Both must accept the same floorplans and reject the rest
with the same message — built-in floorplans, every ``hetero`` core mix,
and random tilings with touching edges, shifted rectangles and overlaps
sized around the length tolerance.
"""

import random
from dataclasses import replace

import pytest

from repro.thermal import floorplan as floorplan_module
from repro.thermal.floorplan import FLOORPLANS, Floorplan, FloorplanComponent

TOLERANCE = floorplan_module.LENGTH_TOLERANCE


def pairwise_validate(name, width, height, components):
    """The pre-sweep validation, raising the same errors."""
    names = [c.name for c in components]
    if len(set(names)) != len(names):
        raise ValueError(f"{name}: duplicate component names")
    total = 0.0
    for comp in components:
        if comp.width <= 0 or comp.height <= 0:
            raise ValueError(f"{name}/{comp.name}: non-positive size")
        if (
            comp.x < -TOLERANCE
            or comp.y < -TOLERANCE
            or comp.x1 > width + TOLERANCE
            or comp.y1 > height + TOLERANCE
        ):
            raise ValueError(f"{name}/{comp.name}: outside the die")
        total += comp.area
    for i, a in enumerate(components):
        for b in components[i + 1:]:
            if (min(a.x1, b.x1) - max(a.x, b.x) > TOLERANCE
                    and min(a.y1, b.y1) - max(a.y, b.y) > TOLERANCE):
                raise ValueError(
                    f"{name}: components {a.name} and {b.name} overlap"
                )
    area = width * height
    if abs(total - area) > TOLERANCE * min(width, height):
        raise ValueError(
            f"{name}: tiling covers {total:.3e} m^2 of {area:.3e} m^2"
        )


def outcomes(name, width, height, components):
    """(sweep outcome, pairwise outcome): "ok" or the error message."""
    results = []
    for check in (
        lambda: Floorplan(name, width, height, list(components)),
        lambda: pairwise_validate(name, width, height, components),
    ):
        try:
            check()
            results.append("ok")
        except ValueError as exc:
            results.append(str(exc))
    return tuple(results)


def assert_same(name, width, height, components):
    sweep, pairwise = outcomes(name, width, height, components)
    assert sweep == pairwise
    return sweep


def random_tiling(rng, width, height):
    """An exact tiling: random rows, each cut into random widths."""
    components = []
    y = 0.0
    rows = rng.randint(1, 6)
    for row in range(rows):
        row_h = height - y if row == rows - 1 else height / rows
        x = 0.0
        cells = rng.randint(1, 6)
        for cell in range(cells):
            cell_w = width - x if cell == cells - 1 else (
                (width - x) * rng.uniform(0.2, 0.6)
            )
            components.append(FloorplanComponent(
                name=f"r{row}c{cell}", x=x, y=y, width=cell_w, height=row_h,
                power_class="arm7" if rng.random() < 0.5 else None,
            ))
            x += cell_w
        y += row_h
    rng.shuffle(components)
    return components


def perturb(rng, components, width):
    """One random defect: a shift, a duplicate, a resize or a swap."""
    components = list(components)
    index = rng.randrange(len(components))
    comp = components[index]
    kind = rng.choice(
        ["shift_x", "shift_y", "duplicate", "grow", "shrink", "swap"]
    )
    # Shifts and growths from well below to well above the tolerance.
    delta = rng.choice([1e-3, 1e-1, 1.0, 10.0, 1e3]) * TOLERANCE
    delta *= rng.choice([-1, 1])
    if kind == "shift_x":
        components[index] = replace(comp, x=comp.x + delta)
    elif kind == "shift_y":
        components[index] = replace(comp, y=comp.y + delta)
    elif kind == "duplicate":
        components.append(replace(comp, name=f"{comp.name}_dup",
                                  x=comp.x + rng.uniform(-0.5, 0.5) * width))
    elif kind == "grow":
        components[index] = replace(comp, width=comp.width + abs(delta))
    elif kind == "shrink":
        # Gaps from well below to well above the coverage tolerance.
        components[index] = replace(
            comp, width=comp.width * rng.choice([1 - 1e-9, 1 - 1e-6, 0.9])
        )
    else:
        other = rng.randrange(len(components))
        components[index], components[other] = (
            replace(comp, x=components[other].x, y=components[other].y),
            replace(components[other], x=comp.x, y=comp.y),
        )
    return components


def _factories():
    cases = [(name, {}) for name in FLOORPLANS.names() if name != "hetero"]
    cases += [
        ("hetero", {"big": big, "little": little})
        for big in range(7) for little in range(7) if big + little
    ]
    return cases


@pytest.mark.parametrize(
    "name,params", _factories(),
    ids=[f"{n}-{p.get('big', '')}b{p.get('little', '')}l"
         for n, p in _factories()],
)
def test_registered_floorplans_agree(name, params):
    plan = FLOORPLANS.get(name)(**params)
    assert assert_same(plan.name, plan.width, plan.height,
                       plan.components) == "ok"
    rng = random.Random(f"{name}/{sorted(params.items())}")
    for _ in range(20):
        assert_same(plan.name, plan.width, plan.height,
                    perturb(rng, plan.components, plan.width))


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_random_tilings_agree(scale):
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        width, height = scale * rng.uniform(1, 4), scale * rng.uniform(1, 4)
        components = random_tiling(rng, width, height)
        assert assert_same("t", width, height, components) == "ok"
        for _ in range(3):
            components = perturb(rng, components, width)
            outcome = assert_same("t", width, height, components)
            seen.add(outcome.split(":")[-1].split()[-1])
    # The defects hit every kind of verdict, not only one.
    assert {"ok", "overlap", "die", "m^2"} <= seen


def test_touching_edges_are_not_overlaps():
    components = [
        FloorplanComponent("a", 0.0, 0.0, 0.1, 0.3),
        FloorplanComponent("b", 0.1, 0.0, 0.2, 0.1),
        FloorplanComponent("c", 0.1, 0.1, 0.2, 0.2),
    ]
    assert assert_same("t", 0.3, 0.3, components) == "ok"


def test_first_overlapping_pair_is_reported():
    components = [
        FloorplanComponent("a", 0.0, 0.5, 1.0, 0.5),
        FloorplanComponent("b", 0.0, 0.0, 1.0, 0.6),
        FloorplanComponent("c", 0.0, 0.4, 1.0, 0.2),
    ]
    outcome = assert_same("t", 1.0, 1.0, components)
    assert outcome == "t: components a and b overlap"


def test_non_finite_geometry_is_rejected():
    components = [FloorplanComponent("a", 0.0, float("nan"), 1.0, 1.0)]
    with pytest.raises(ValueError, match="non-finite"):
        Floorplan("t", 1.0, 1.0, components)
