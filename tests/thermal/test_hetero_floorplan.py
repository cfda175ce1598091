"""The parameterized heterogeneous (big.LITTLE-style) floorplan."""

import pytest

from repro.thermal.floorplan import FLOORPLANS, floorplan_hetero


def test_builds_and_validates():
    plan = floorplan_hetero(big=2, little=3)
    plan.validate()
    assert plan.name == "hetero_2xarm11_3xarm7"


def test_core_activity_indices_follow_platform_order():
    plan = floorplan_hetero(big=2, little=2)
    sources = {c.activity_source for c in plan.active_components()}
    for i in range(4):
        assert ("core", i) in sources
        assert ("icache", i) in sources
        assert ("private_mem", i) in sources
    assert ("shared_mem", None) in sources
    assert ("bus", None) in sources
    # Cores 0..big-1 are big-class rectangles, the rest little-class.
    by_source = {c.activity_source: c for c in plan.active_components()}
    assert by_source[("core", 0)].power_class == "arm11"
    assert by_source[("core", 3)].power_class == "arm7"


def test_big_cores_are_larger_than_littles():
    plan = floorplan_hetero(big=1, little=1)
    by_source = {c.activity_source: c for c in plan.active_components()}
    big = by_source[("core", 0)]
    little = by_source[("core", 1)]
    assert big.width * big.height > little.width * little.height


def test_single_cluster_shapes():
    floorplan_hetero(big=3, little=0).validate()
    floorplan_hetero(big=0, little=2).validate()


def test_rejects_empty_platform():
    with pytest.raises(ValueError):
        floorplan_hetero(big=0, little=0)
    with pytest.raises(ValueError):
        floorplan_hetero(big=-1, little=2)


def test_name_is_deterministic_and_fingerprint_stable():
    a = floorplan_hetero(big=2, little=2)
    b = floorplan_hetero(big=2, little=2)
    assert a.name == b.name
    assert a.fingerprint() == b.fingerprint()
    assert a.name != floorplan_hetero(big=2, little=1).name


def test_registered_as_builtin():
    assert FLOORPLANS.get("hetero") is floorplan_hetero
