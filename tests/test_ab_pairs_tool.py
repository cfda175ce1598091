"""The A/B pairs tool's decision, seed parsing and metric directions
(the perfbench runs it drives are not started here)."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location(
    "ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py"
)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

PARENT = [36.0, 37.0, 38.0, 36.5, 37.5, 38.5, 36.2, 37.2, 38.2, 37.8]


def test_nine_of_ten_wins_and_a_gap_beyond_the_iqr_hold():
    change = [p - 4.0 for p in PARENT]
    change[3] = PARENT[3] + 1.0  # one pair lost
    result = tool.verdict(PARENT, change, "lower")
    assert (result.pairs, result.wins, result.losses) == (10, 9, 1)
    q1, median, q3 = result.parent_quartiles
    assert q1 < median < q3 and result.gap > q3 - q1
    assert result.holds


def test_eight_wins_do_not_hold():
    change = [p - 4.0 for p in PARENT]
    change[0], change[1] = PARENT[0] + 1.0, PARENT[1] + 1.0
    result = tool.verdict(PARENT, change, "lower")
    assert result.wins == 8 and not result.holds


def test_ties_count_for_neither_side():
    change = [p - 4.0 for p in PARENT]
    change[5] = PARENT[5]
    result = tool.verdict(PARENT, change, "lower")
    assert (result.wins, result.losses) == (9, 0)
    assert result.holds
    change[6] = PARENT[6]
    assert not tool.verdict(PARENT, change, "lower").holds


def test_a_gap_inside_the_parents_iqr_does_not_hold():
    change = [p - 0.1 for p in PARENT]
    result = tool.verdict(PARENT, change, "lower")
    assert result.wins == 10
    q1, _, q3 = result.parent_quartiles
    assert 0 < result.gap <= q3 - q1 and not result.holds


def test_higher_is_better_flips_the_sides():
    change = [p + 4.0 for p in PARENT]
    assert tool.verdict(PARENT, change, "higher").holds
    result = tool.verdict(PARENT, change, "lower")
    assert result.wins == 0 and result.losses == 10 and result.gap < 0
    assert not result.holds


def test_fewer_than_ten_pairs_never_hold():
    change = [p - 10.0 for p in PARENT]
    assert not tool.verdict(PARENT[:9], change[:9], "lower").holds
    assert tool.verdict(PARENT, change, "lower").holds


def test_bad_inputs_are_refused():
    with pytest.raises(ValueError):
        tool.verdict(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        tool.verdict(PARENT, PARENT, "faster")


def test_seed_ranges():
    assert tool.parse_seeds("31-40") == list(range(31, 41))
    assert tool.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        tool.parse_seeds("9-3")


def test_directions_come_from_the_benchmark_file():
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert tool.direction(benchmark, "window_p50_us") == "lower"
    assert tool.direction(benchmark, "designs_per_s") == "higher"
    with pytest.raises(ValueError):
        tool.direction(benchmark, "no_such_metric")
