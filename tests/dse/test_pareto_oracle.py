"""The sort-based ``pareto_front`` against the quadratic scan it replaced.

``pareto_front`` visits rows in lexicographic objective order and tests
each against the front found so far.  The oracle below is the original
all-pairs scan, kept here only as a reference.  Both must return the
same ``(front, dominated)`` lists — the same row objects, in input
order — on random rows with duplicates, all-tied rows, either sense
per objective, and NaN objectives (which compare neither way, so the
ordering argument does not cover them).
"""

import math
import random

import pytest

from repro.dse.pareto import OBJECTIVES, dominates, pareto_front


def quadratic_front(rows, objectives=OBJECTIVES):
    """The pre-sort Pareto split."""
    rows = list(rows)
    front, dominated = [], []
    for i, row in enumerate(rows):
        if any(
            dominates(other, row, objectives)
            for j, other in enumerate(rows)
            if j != i
        ):
            dominated.append(row)
        else:
            front.append(row)
    return front, dominated


def assert_same(rows, objectives=OBJECTIVES):
    got = pareto_front(rows, objectives)
    want = quadratic_front(rows, objectives)
    assert [[id(r) for r in part] for part in got] == [
        [id(r) for r in part] for part in want
    ]
    return got


KEYS = [key for key, _ in OBJECTIVES]


def random_rows(rng, count, levels, nan_share=0.0, ints=False):
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.2:
            rows.append(dict(rng.choice(rows)))  # an exact duplicate
            continue
        row = {}
        for key in KEYS:
            value = rng.randrange(levels) if ints else rng.uniform(0, levels)
            if rng.random() < nan_share:
                value = math.nan
            row[key] = value
        rows.append(row)
    return rows


@pytest.mark.parametrize("senses", [
    ("min", "min", "max"), ("max", "max", "max"), ("min", "min", "min"),
    ("max", "min", "max"),
])
@pytest.mark.parametrize("nan_share", [0.0, 0.05, 0.3])
def test_random_rows_agree(senses, nan_share):
    objectives = tuple(zip(KEYS, senses))
    rng = random.Random(f"{senses}/{nan_share}")
    for trial in range(60):
        count = rng.choice([0, 1, 2, 3, 10, 60, 200])
        levels = rng.choice([2, 4, 50])  # few levels: many partial ties
        rows = random_rows(rng, count, levels, nan_share,
                           ints=rng.random() < 0.5)
        assert_same(rows, objectives)


def test_all_tied_rows_stay_on_the_front():
    rows = [{key: 1.0 for key in KEYS} for _ in range(7)]
    front, dominated = assert_same(rows)
    assert len(front) == 7 and not dominated


def test_nan_rows_keep_the_quadratic_answer():
    # NaN ties on its objective, so it neither dominates nor is
    # dominated there; transitivity through it does not hold.
    a = {"peak_temperature_k": 300.0, "avg_power_w": math.nan,
         "throughput_ips": 5.0}
    b = {"peak_temperature_k": 301.0, "avg_power_w": 1.0,
         "throughput_ips": 5.0}
    c = {"peak_temperature_k": 302.0, "avg_power_w": 0.5,
         "throughput_ips": 5.0}
    front, dominated = assert_same([c, b, a])
    assert front == [a] and dominated == [c, b]


def test_bad_sense_still_raises():
    rows = [{"x": 1.0}, {"x": 2.0}]
    with pytest.raises(ValueError, match="sense"):
        pareto_front(rows, (("x", "lowest"),))
