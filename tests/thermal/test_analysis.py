"""Operating-point analysis tests."""

import pytest

from repro.thermal.analysis import OperatingPointAnalyzer
from repro.thermal.floorplan import floorplan_4xarm11
from repro.util.units import MHZ


@pytest.fixture(scope="module")
def analyzer():
    return OperatingPointAnalyzer(floorplan_4xarm11(), spreader_resolution=(2, 2))


def test_steady_state_monotone_in_frequency(analyzer):
    points = analyzer.sweep([100 * MHZ, 250 * MHZ, 500 * MHZ], utilization=0.95)
    temps = [p.max_temperature_k for p in points]
    powers = [p.total_power_w for p in points]
    assert temps == sorted(temps)
    assert powers == sorted(powers)
    # 500 MHz near-full tilt lands in the unmanaged Figure 6 regime
    # (slightly above the measured-profile run: here every component,
    # caches and switches included, is pinned at 95% activity).
    assert 400.0 < temps[-1] < 465.0


def test_holds_predicate(analyzer):
    hot = analyzer.steady_state(500 * MHZ, utilization=0.95)
    cool = analyzer.steady_state(100 * MHZ, utilization=0.95)
    assert not hot.holds(350.0)
    assert cool.holds(350.0)


def test_ablation_insight_250mhz_cannot_hold_350k(analyzer):
    """The DFS ablation's finding, as an API answer."""
    assert analyzer.dfs_low_point_holds(100 * MHZ, 350.0, utilization=0.95)
    assert not analyzer.dfs_low_point_holds(250 * MHZ, 350.0, utilization=0.95)


def test_minimum_holding_frequency_brackets(analyzer):
    f = analyzer.minimum_holding_frequency(
        350.0, utilization=0.95, low_hz=50 * MHZ, high_hz=500 * MHZ,
        tol_hz=5 * MHZ,
    )
    assert 100 * MHZ < f < 250 * MHZ
    # The returned point holds; slightly above it does not.
    assert analyzer.steady_state(f, 0.95).holds(350.0)
    assert not analyzer.steady_state(f + 20 * MHZ, 0.95).holds(350.0)


def test_minimum_holding_frequency_edges(analyzer):
    # A very lax ceiling is held even at the top frequency.
    assert analyzer.minimum_holding_frequency(
        600.0, utilization=0.95, high_hz=500 * MHZ
    ) == 500 * MHZ
    # An impossible ceiling returns 0.
    assert analyzer.minimum_holding_frequency(
        300.5, utilization=0.95, low_hz=50 * MHZ, high_hz=500 * MHZ
    ) == 0.0
    with pytest.raises(ValueError):
        analyzer.minimum_holding_frequency(290.0)


def test_accepts_a_utilization_mapping(analyzer):
    activity = {("core", 0): 1.0}  # single hot core
    point = analyzer.steady_state(500 * MHZ, activity)
    hottest = max(
        point.component_temperatures, key=point.component_temperatures.get
    )
    assert hottest == "arm11_0"
