"""Tech-node operating-point models and their effect on PowerModel."""

import pytest

from repro.power.models import (
    TECH_NODES,
    OperatingPoint,
    PowerModel,
    TechNode,
    make_tech_node,
)
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ


def ladder(*steps, name="test", vnom=None):
    points = tuple(OperatingPoint(f * MHZ, v) for f, v in steps)
    return TechNode(
        name=name,
        nominal_voltage_v=vnom if vnom is not None else steps[-1][1],
        points=points,
    )


# -- OperatingPoint / TechNode ---------------------------------------------------


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(frequency_hz=0.0, voltage_v=1.0)
    with pytest.raises(ValueError):
        OperatingPoint(frequency_hz=100 * MHZ, voltage_v=-0.1)


def test_operating_point_round_trip():
    point = OperatingPoint(frequency_hz=100 * MHZ, voltage_v=0.95)
    assert OperatingPoint.from_dict(point.to_dict()) == point


def test_tech_node_requires_ascending_frequencies():
    with pytest.raises(ValueError):
        ladder((200, 1.0), (100, 0.9))
    with pytest.raises(ValueError):
        ladder((100, 0.9), (100, 1.0))


def test_tech_node_requires_points():
    with pytest.raises(ValueError):
        TechNode(name="empty", nominal_voltage_v=1.0, points=())


def test_voltage_interpolates_between_points():
    node = ladder((100, 0.8), (200, 1.0))
    assert node.voltage_at(150 * MHZ) == pytest.approx(0.9)
    assert node.voltage_at(100 * MHZ) == pytest.approx(0.8)
    assert node.voltage_at(200 * MHZ) == pytest.approx(1.0)


def test_voltage_clamps_outside_the_ladder():
    node = ladder((100, 0.8), (200, 1.0))
    assert node.voltage_at(50 * MHZ) == pytest.approx(0.8)
    assert node.voltage_at(400 * MHZ) == pytest.approx(1.0)


def test_voltage_scale_is_quadratic_in_voltage():
    node = ladder((100, 0.5), (200, 1.0), vnom=1.0)
    assert node.voltage_scale(100 * MHZ) == pytest.approx(0.25)
    assert node.voltage_scale(200 * MHZ) == pytest.approx(1.0)


def test_tech_node_round_trip():
    node = TECH_NODES.get("90nm")()
    clone = TechNode.from_dict(node.to_dict())
    assert clone == node
    assert clone.frequencies() == node.frequencies()


def test_registry_ladders_are_monotone():
    for name in ("130nm", "90nm", "65nm"):
        node = TECH_NODES.get(name)()
        voltages = [p.voltage_v for p in node.points]
        assert voltages == sorted(voltages)
        assert voltages[-1] == pytest.approx(node.nominal_voltage_v)


def test_smaller_nodes_run_at_lower_voltage():
    v130 = TECH_NODES.get("130nm")().voltage_at(200 * MHZ)
    v90 = TECH_NODES.get("90nm")().voltage_at(200 * MHZ)
    v65 = TECH_NODES.get("65nm")().voltage_at(200 * MHZ)
    assert v65 < v90 < v130


# -- make_tech_node resolution ---------------------------------------------------


def test_make_tech_node_forms():
    assert make_tech_node(None) is None
    node = TECH_NODES.get("65nm")()
    assert make_tech_node(node) is node
    assert make_tech_node("65nm") == node
    assert make_tech_node({"name": "65nm"}) == node
    assert make_tech_node(node.to_dict()) == node
    with pytest.raises(TypeError):
        make_tech_node(42)


# -- PowerModel integration ------------------------------------------------------


@pytest.fixture
def floorplan():
    return floorplan_4xarm11()


def busy_vector(model):
    return model.utilization_vector({("core", 0): 1.0})


def test_power_model_scales_by_voltage_squared(floorplan):
    nominal = PowerModel(floorplan)
    scaled = PowerModel(floorplan, tech_node="65nm")
    node = scaled.tech_node
    frequency = 200 * MHZ
    base = nominal.power_map(busy_vector(nominal), frequency)
    low = scaled.power_map(busy_vector(scaled), frequency)
    for name, watts in base.items():
        if watts > 0:
            assert low[name] == pytest.approx(
                watts * node.voltage_scale(frequency)
            )
        else:
            assert low[name] == 0.0


def test_power_model_nominal_point_is_identity(floorplan):
    # At the ladder's top (nominal voltage) the scale is exactly 1.
    nominal = PowerModel(floorplan)
    scaled = PowerModel(floorplan, tech_node="130nm")
    frequency = 600 * MHZ
    base = nominal.power_map(busy_vector(nominal), frequency)
    top = scaled.power_map(busy_vector(scaled), frequency)
    for name in base:
        assert top[name] == pytest.approx(base[name])


def test_dvfs_step_changes_voltage_as_well_as_frequency(floorplan):
    # Halving f under a tech node drops power by MORE than 2x: the
    # ladder lowers V alongside f, so the step is f * V(f)^2.
    model = PowerModel(floorplan, tech_node="65nm")
    high = sum(model.power_map(busy_vector(model), 400 * MHZ).values())
    low = sum(model.power_map(busy_vector(model), 200 * MHZ).values())
    assert low < high / 2
    node = model.tech_node
    expected = (200 / 400) * (
        node.voltage_scale(200 * MHZ) / node.voltage_scale(400 * MHZ)
    )
    assert low / high == pytest.approx(expected)
