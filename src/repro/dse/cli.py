"""``python -m repro dse`` — heterogeneous design-space exploration.

Sweeps the big/little x tech-node x operating-point x thermal-grid
space through one batched run (with trace-store replay dedup), prunes
the metric rows to their Pareto front and prints it.  ``--check`` is
the CI gate: the full default space (>= 1000 configurations) must
evaluate cleanly, dedup its thermal-grid twins into replays, and
produce a non-empty front.
"""

import argparse
import contextlib
import json
import pathlib
import sys

from repro.dse.driver import run_dse
from repro.dse.space import (
    DEFAULT_BIG_COUNTS,
    DEFAULT_GRIDS,
    DEFAULT_LITTLE_COUNTS,
    DEFAULT_TECH_NODES,
    generate_points,
)
from repro.obs import tracing as obs_tracing
from repro.util.units import MHZ


def _front_lines(report, top):
    rows = sorted(
        report["front"], key=lambda r: r["throughput_ips"], reverse=True
    )
    lines = [
        f"{'design':42s} {'peak K':>8s} {'avg W':>8s} {'Ginstr/s':>9s}"
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['design']:42s} {row['peak_temperature_k']:8.2f} "
            f"{row['avg_power_w']:8.3f} {row['throughput_ips'] / 1e9:9.3f}"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more front designs")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro dse",
        description="Sweep heterogeneous platform configurations and "
        "emit the Pareto front (peak temperature vs throughput vs power).",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: full default space, assert >= 1000 configs, "
        "replay dedup and a non-empty front",
    )
    parser.add_argument(
        "--max-windows", type=int, default=12,
        help="sampling windows per design evaluation (default 12)",
    )
    parser.add_argument(
        "--nodes", nargs="+", default=None, metavar="NODE",
        help=f"tech nodes to sweep (default {' '.join(DEFAULT_TECH_NODES)})",
    )
    parser.add_argument(
        "--big-hz", nargs="+", type=float, default=None, metavar="MHZ",
        help="big-cluster operating points in MHz (default 7 steps, "
        "100..500)",
    )
    parser.add_argument(
        "--refine-top", type=int, default=2,
        help="front designs to re-run through compare_policies (default 2; "
        "0 skips)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="front rows to print (default 10)",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the full report JSON here"
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full report JSON to stdout",
    )
    parser.add_argument(
        "--obs-log", metavar="PATH",
        help="record a JSONL span log of the sweep (inspect with "
        "'python -m repro obs timeline PATH')",
    )
    args = parser.parse_args(argv)

    kwargs = {}
    if args.nodes is not None:
        kwargs["tech_nodes"] = tuple(args.nodes)
    if args.big_hz is not None:
        kwargs["big_hz_steps"] = tuple(f * MHZ for f in args.big_hz)
    points = generate_points(**kwargs)

    observe = contextlib.nullcontext()
    if args.obs_log:
        observe = obs_tracing.trace_to(args.obs_log)
    with observe:
        report = run_dse(
            points,
            max_windows=args.max_windows,
            refine_top=args.refine_top,
        )

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2))
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"evaluated {report['evaluated']} designs "
            f"({report['replayed']} replayed from recorded traces, "
            f"{report['failed']} failed): front {report['front_size']}, "
            f"dominated {report['dominated']}"
        )
        print("\n".join(_front_lines(report, args.top)))

    if args.check:
        mixes = len(DEFAULT_BIG_COUNTS) * len(DEFAULT_LITTLE_COUNTS)
        failures = []
        if len(points) < 1000:
            failures.append(f"space has {len(points)} configs, need >= 1000")
        if report["failed"]:
            failures.append(f"{report['failed']} designs failed: "
                            f"{report['errors']}")
        if not report["front"]:
            failures.append("empty Pareto front")
        if report["front_size"] + report["dominated"] != report["evaluated"]:
            failures.append("front + dominated != evaluated")
        if len(DEFAULT_GRIDS) > 1 and not report["replayed"]:
            failures.append(
                f"no replays across the {mixes}-mix grid axis — trace-store "
                f"dedup is broken"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"dse check OK: {len(points)} configs, "
              f"{report['replayed']} replays, front {report['front_size']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
