#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs, judged by the pairs rule.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
the PARENT and the CHANGE checkout once per seed, alternating which side
runs first, and reads metric M off each run's JSON result.  Prints each
pair's values, each side's median and quartiles, the pairs the change
won (ties count for neither side) and whether a gain may be claimed:
at least ten pairs, the change winning at least nine tenths of them,
and its median better than the parent's by more than the distance
between the parent's quartiles.  Whether lower or higher is better is
read from the CHANGE checkout's ``BENCHMARK.json``.  Exits nonzero if a
run is not ``correct``.

Usage: python3 tools/ab_pairs.py PARENT CHANGE --workload W --metric M
       --seeds A-B --seconds S
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import NamedTuple


class Verdict(NamedTuple):
    pairs: int
    wins: int
    losses: int
    parent_quartiles: tuple  # (q1, median, q3)
    change_quartiles: tuple
    gap: float  # change median better than the parent's by this much
    holds: bool


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (the inclusive method, so a
    handful of runs has quartiles too)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better):
    """Judge paired runs: ``parent[k]`` and ``change[k]`` ran one after
    the other; ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    ours, theirs = quartiles(change), quartiles(parent)
    gap = sign * (ours[1] - theirs[1])
    pairs = len(parent)
    holds = (pairs >= 10 and 10 * wins >= 9 * pairs
             and gap > theirs[2] - theirs[0])
    return Verdict(pairs, wins, losses, theirs, ours, gap, holds)


def parse_seeds(text):
    """``"A-B"`` (inclusive) or a single ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def direction(benchmark, metric):
    """``"lower"`` or ``"higher"``: the ``better`` of the end-to-end
    ``metric`` in a parsed ``BENCHMARK.json``."""
    for entry in benchmark["end_to_end"]:
        if entry["name"] == metric:
            return entry["better"]
    raise ValueError(f"BENCHMARK.json declares no end-to-end metric {metric!r}")


def measure(checkout, workload, metric, seed, seconds):
    """One perfbench run in ``checkout``; returns the metric's value."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout} seed {seed}: no result "
                         f"(exit {run.returncode})\n{run.stderr[-2000:]}")
    if not result.get("correct"):
        raise SystemExit(f"{checkout} seed {seed}: run is not correct")
    return result["metrics"][metric]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = direction(benchmark, args.metric)
    parent, change = [], []
    for k, seed in enumerate(args.seeds):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, values in sides if k % 2 == 0 else sides[::-1]:
            values.append(measure(checkout, args.workload, args.metric,
                                  seed, args.seconds))
        first = "parent" if k % 2 == 0 else "change"
        print(f"seed {seed} ({first} first): parent {parent[-1]:.6g}, "
              f"change {change[-1]:.6g}", flush=True)
    result = verdict(parent, change, better)
    for side, (q1, q2, q3) in (("parent", result.parent_quartiles),
                               ("change", result.change_quartiles)):
        print(f"{side}: median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]")
    q1, _, q3 = result.parent_quartiles
    print(f"{args.metric} ({better} is better) on {args.workload}: change "
          f"won {result.wins} of {result.pairs} pairs, lost "
          f"{result.losses}; median gap {result.gap:.6g} against parent "
          f"IQR {q3 - q1:.6g}")
    print("gain may be claimed" if result.holds else "gain not shown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
