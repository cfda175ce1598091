"""Solver-backend throughput: windows/sec per backend vs. grid size.

The co-emulation loop spends its SW-side budget in the backward-Euler
solve, one 10 ms sampling window at a time.  This bench drives every
registered backend over the same deterministic power schedule on grids
from the paper's coarse co-emulation size (~30 cells) up past its
660-cell fine-grid claim, and reports windows/sec, the speedup over the
``sparse_be`` reference, and the factorization counts that explain it.
A 16-column batched solve demonstrates the multi-RHS sweep path.

Check mode (``python benchmarks/bench_solver_backends.py --check``, run
in CI) skips the timing and only asserts that every backend reproduces
the reference temperatures — so the perf plumbing can't silently rot.
"""

import argparse
import sys
import time

import numpy as np

from repro.thermal.backends import SOLVER_BACKENDS, CachedLU, make_backend
from repro.thermal.floorplan import floorplan_4xarm11, floorplan_4xarm7
from repro.thermal.rc_network import network_for
from repro.thermal.solver import ThermalSolver
from repro.util.records import Table

DT = 0.010  # the paper's 10 ms sampling period
DEFAULT_WINDOWS = 200
AGREEMENT_TOLERANCE_K = 0.25  # max |T - reference| over a full run
# Batched columns share one linearization (the batch mean); their error
# is bounded by the column's thermal distance from that mean, so the
# multi-RHS check gets a wider (still sub-kelvin) band.
BATCHED_TOLERANCE_K = 0.5

# (label, network factory). The first entry is the default preset's
# thermal configuration (FrameworkConfig defaults on the 4xarm7 plan) —
# the grid the >= 3x CachedLU acceptance bar is measured on.
GRIDS = [
    (
        "4xarm7 component (default preset)",
        lambda: network_for(floorplan_4xarm7(), spreader_resolution=(3, 3)),
    ),
    (
        "4xarm11 refined x2",
        lambda: network_for(
            floorplan_4xarm11(), refine_critical=2, spreader_resolution=(4, 4)
        ),
    ),
    (
        "uniform 8x8",
        lambda: network_for(
            floorplan_4xarm11(),
            mode="uniform",
            die_resolution=(8, 8),
            spreader_resolution=(8, 8),
        ),
    ),
    (
        "uniform 18x18 (paper's 660-cell claim)",
        lambda: network_for(
            floorplan_4xarm11(),
            mode="uniform",
            die_resolution=(18, 18),
            spreader_resolution=(18, 18),
        ),
    ),
]


def power_schedule(network, windows):
    """A deterministic per-window ``{component: watts}`` schedule.

    Loads shift between component halves every 25 windows and breathe
    sinusoidally, so backends see power changes every single window and
    enough temperature drift to exercise the refactorization policy.
    Wattages are in the range the default preset's workload produces
    (fractions of a watt per component).
    """
    names = list(network.component_names)
    schedule = []
    for w in range(windows):
        phase = (w // 25) % 2
        breathe = 1.0 + 0.3 * np.sin(2.0 * np.pi * w / 40.0)
        powers = {}
        for k, name in enumerate(names):
            on = (k % 2) == phase
            powers[name] = 0.15 * breathe if on else 0.03
        schedule.append(powers)
    return schedule


def run_windows(backend_name, network, schedule):
    """Integrate the schedule; returns (final temps, wall seconds, backend)."""
    net = network.clone()
    solver = ThermalSolver(net, backend=make_backend(backend_name))
    start = time.perf_counter()
    for powers in schedule:
        net.set_power(powers)
        solver.step_be(DT)
    wall = time.perf_counter() - start
    return solver.temperatures, wall, solver.backend


def run_batched_columns(network, schedule, columns, scale_span=0.2):
    """Step ``columns`` power-scaled runs through one shared CachedLU.

    The shared factorization is linearized at the batch mean, so each
    column's error is bounded by its thermal distance from that mean —
    ``scale_span`` controls how far the bench spreads the columns.
    """
    nets = [network.clone() for _ in range(columns)]
    backend = CachedLU().bind(nets[0])
    temps = np.full((network.num_cells, columns), network.properties.ambient)
    scales = np.linspace(1.0 - scale_span, 1.0 + scale_span, columns)
    start = time.perf_counter()
    for powers in schedule:
        for col, net in enumerate(nets):
            net.set_power({k: v * scales[col] for k, v in powers.items()})
        rhs = np.stack([net.rhs() for net in nets], axis=1)
        temps = backend.step_batch(temps, DT, rhs)
    wall = time.perf_counter() - start
    return temps, wall, backend, scales


def check(windows=DEFAULT_WINDOWS, out=print):
    """Assert every backend reproduces the reference run (no timing)."""
    for label, factory in GRIDS:
        network = factory()
        schedule = power_schedule(network, windows)
        reference, _, _ = run_windows("sparse_be", network, schedule)
        for name in SOLVER_BACKENDS.names():
            if name == "sparse_be":
                continue
            temps, _, backend = run_windows(name, network, schedule)
            worst = float(np.max(np.abs(temps - reference)))
            assert worst <= AGREEMENT_TOLERANCE_K, (
                f"{name} diverged from sparse_be on {label}: "
                f"max |dT| = {worst:.4f} K"
            )
            out(
                f"  {label:40s} {name:12s} max |dT| = {worst:.2e} K "
                f"({backend.factorizations} factorizations / {windows} windows)"
            )
        # The multi-RHS path must match per-column references too.
        temps, _, _, scales = run_batched_columns(network, schedule, columns=4)
        for col, scale in enumerate(scales):
            scaled = [
                {k: v * scale for k, v in powers.items()} for powers in schedule
            ]
            reference, _, _ = run_windows("sparse_be", network, scaled)
            worst = float(np.max(np.abs(temps[:, col] - reference)))
            assert worst <= BATCHED_TOLERANCE_K, (
                f"batched column {col} diverged on {label}: {worst:.4f} K"
            )
        out(f"  {label:40s} {'batched x4':12s} columns match reference")
    out("all solver backends agree with the sparse_be reference")


def bench(windows=DEFAULT_WINDOWS):
    """Time every backend on every grid; returns the report text."""
    table = Table(
        ["grid", "cells", "backend", "windows/s", "speedup", "factorizations"],
        title=f"Solver backend throughput ({windows} windows of {DT * 1e3:.0f} ms)",
    )
    default_speedups = {}
    for grid_index, (label, factory) in enumerate(GRIDS):
        network = factory()
        schedule = power_schedule(network, windows)
        baseline = None
        names = ["sparse_be"] + [
            n for n in SOLVER_BACKENDS.names() if n != "sparse_be"
        ]
        for name in names:
            _, wall, backend = run_windows(name, network, schedule)
            rate = windows / wall
            if name == "sparse_be":
                baseline = rate
            speedup = rate / baseline if baseline else float("nan")
            if grid_index == 0:
                default_speedups[name] = speedup
            table.add_row(
                label,
                network.num_cells,
                name,
                f"{rate:,.0f}",
                f"{speedup:.1f}x",
                backend.factorizations,
            )
    # The batched sweep path: 16 scenarios, one factorization stream.
    network = GRIDS[0][1]()
    schedule = power_schedule(network, windows)
    _, seq_wall, _ = run_windows("cached_lu", network, schedule)
    _, batch_wall, backend, _ = run_batched_columns(network, schedule, columns=16)
    lines = [
        str(table),
        "",
        f"batched sweep (16 columns, {GRIDS[0][0]}): "
        f"{16 * windows / batch_wall:,.0f} scenario-windows/s in one multi-RHS "
        f"stream ({backend.factorizations} factorizations) vs "
        f"{16 * windows / (16 * seq_wall):,.0f} running 16 cached_lu solvers "
        f"back to back",
        "",
        f"cached_lu speedup on the default preset grid: "
        f"{default_speedups.get('cached_lu', float('nan')):.1f}x "
        f"(acceptance bar: >= 3x)",
    ]
    assert default_speedups.get("cached_lu", 0.0) >= 3.0, (
        "CachedLU must be >= 3x faster than SparseBE on the default preset "
        f"grid, measured {default_speedups.get('cached_lu'):.2f}x"
    )
    return "\n".join(lines)


# -- pytest entry points (benchmarks/ is run explicitly, not by tier-1) ------

def test_backends_agree(report):
    lines = []
    check(out=lines.append)
    report("solver_backends_check", "\n".join(lines))


def test_backend_throughput(report):
    report("solver_backends", bench())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="only assert backend agreement (CI mode, no timing)",
    )
    parser.add_argument(
        "--windows", type=int, default=DEFAULT_WINDOWS,
        help=f"windows per run (default {DEFAULT_WINDOWS})",
    )
    args = parser.parse_args(argv)
    if args.check:
        check(windows=args.windows)
        return 0
    print(bench(windows=args.windows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
