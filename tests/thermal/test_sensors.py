"""Temperature-sensor hysteresis tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.thermal.sensors import (
    IN_BAND,
    OVER_UPPER,
    UNDER_LOWER,
    SensorBank,
    TemperatureSensor,
)


def test_threshold_order_enforced():
    with pytest.raises(ValueError):
        TemperatureSensor("c", upper_kelvin=340.0, lower_kelvin=350.0)


def test_hysteresis_cycle():
    sensor = TemperatureSensor("core", 350.0, 340.0)
    assert sensor.update(345.0, 0.0) == IN_BAND  # rising through the band
    assert not sensor.hot
    assert sensor.update(351.0, 1.0) == OVER_UPPER
    assert sensor.hot
    assert sensor.update(345.0, 2.0) == IN_BAND  # still latched hot
    assert sensor.hot
    assert sensor.update(339.0, 3.0) == UNDER_LOWER
    assert not sensor.hot
    assert [kind for _, kind, _ in sensor.crossings] == [OVER_UPPER, UNDER_LOWER]


def test_exact_threshold_crossings():
    sensor = TemperatureSensor("core", 350.0, 340.0)
    assert sensor.update(350.0) == OVER_UPPER  # >= upper triggers
    assert sensor.update(340.0) == UNDER_LOWER  # <= lower releases


def test_bank_updates_and_any_hot():
    bank = SensorBank(["a", "b"], upper_kelvin=350.0, lower_kelvin=340.0)
    transitions = bank.update({"a": 355.0, "b": 330.0}, time=1.0)
    assert transitions == {"a": OVER_UPPER}
    assert bank.any_hot
    transitions = bank.update({"a": 335.0, "b": 330.0}, time=2.0)
    assert transitions == {"a": UNDER_LOWER}
    assert not bank.any_hot


def test_bank_ignores_unknown_components():
    bank = SensorBank(["a"])
    assert bank.update({"zzz": 400.0}) == {}


def test_bank_max_temperature_and_crossings_sorted():
    bank = SensorBank(["a", "b"])
    bank.update({"a": 310.0, "b": 320.0}, time=0.0)
    assert bank.max_temperature() == 320.0
    bank.update({"a": 360.0}, time=1.0)
    bank.update({"b": 360.0}, time=2.0)
    crossings = bank.crossings()
    assert [c[1] for c in crossings] == ["a", "b"]


@settings(max_examples=40, deadline=None)
@given(
    temps=st.lists(
        st.floats(min_value=300.0, max_value=400.0), min_size=1, max_size=100
    )
)
def test_hot_state_consistent_with_history(temps):
    """Property: the latch is exactly 'crossed upper more recently than
    lower', replayed independently."""
    sensor = TemperatureSensor("c", 350.0, 340.0)
    hot = False
    for t in temps:
        sensor.update(t)
        if not hot and t >= 350.0:
            hot = True
        elif hot and t <= 340.0:
            hot = False
        assert sensor.hot == hot


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(min_value=320.0, max_value=370.0), min_size=3,
                 max_size=3),
        min_size=1, max_size=60,
    )
)
def test_vector_bank_matches_independent_sensors(rows):
    """The bank's elementwise hysteresis against one scalar
    TemperatureSensor per component, window by window."""
    names = ["a", "b", "c"]
    bank = SensorBank(names)
    reference = {name: TemperatureSensor(name) for name in names}
    for window, row in enumerate(rows):
        expected = {}
        for name, value in zip(names, row):
            band = reference[name].update(value, window)
            if band != IN_BAND:
                expected[name] = band
        assert bank.update(np.array(row), window) == expected
        assert bank.any_hot == any(s.hot for s in reference.values())
        assert bank.max_temperature() == max(row)
    for name in names:
        assert bank.sensors[name].hot == reference[name].hot
        assert bank.sensors[name].temperature == reference[name].temperature
        assert bank.sensors[name].crossings == reference[name].crossings


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(min_value=320.0, max_value=370.0), min_size=3,
                 max_size=3),
        min_size=1, max_size=60,
    )
)
@example(rows=[[351.0, 345.0, 345.0], [345.0, 345.0, 345.0],
                [338.0, 345.0, 345.0], [345.0, 351.0, 339.5]])
def test_a_known_hottest_reading_changes_nothing(rows):
    """A bank told each window's hottest reading skips the comparison
    while nothing is latched and the hottest is below the upper
    threshold, and one told the coolest reading too also skips it while
    sensors are latched and every reading is above the lower threshold;
    their transitions and state stay those of a bank that compares
    every reading."""
    names = ["a", "b", "c"]
    compared = SensorBank(names)
    banks = SensorBank(names), SensorBank(names)
    for window, row in enumerate(rows):
        values = np.array(row)
        expected = compared.update(values, window)
        assert banks[0].update(values, window, max(row)) == expected
        assert banks[1].update(values, window, max(row), min(row)) == expected
        for bounded in banks:
            assert bounded.any_hot == compared.any_hot
            assert bounded.max_temperature() == compared.max_temperature()
    for bounded in banks:
        assert bounded.crossings() == compared.crossings()
        for name in names:
            assert bounded.sensors[name].hot == compared.sensors[name].hot
            assert (bounded.sensors[name].temperature
                    == compared.sensors[name].temperature)
