"""The repository benchmark: one workload, one seed, one process, one thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload emu_dither --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced iterations back to back for ``--seconds``
under the host-speed gauge (``gauge.py``) and reports the end-to-end
metrics in reference seconds.  ``--trace 1`` alternates untraced
and traced iterations (spans around every layer's public entry points,
see ``spans.py``) and reports the per-layer metrics, the tracing
overhead and the unattributed share; the spans are written to
``perfbench/out/`` when the run ends.  Every run checks the workload's
outputs; the last line of standard output is one JSON object, and the
exit code is non-zero when any check or design failed.
"""

import argparse
import contextlib
import json
import os
import pathlib
import resource
import statistics
import sys
import time

# One thread: BLAS pools would compete with the process for the host's
# few vCPUs.  Set before NumPy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ips", "instr/s"),
    ("windows_per_s", "1/s"),
    ("window_p50_us", "us"),
    ("designs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("emulation.advance_s", "s"),
    ("emulation.host_ns_per_instr", "ns/instr"),
    ("emulation.calibrate_s", "s"),
    ("emulation.calibrations", "count"),
    ("emulation.power_dev_pct", "%"),
    ("mpsoc.instructions", "count"),
    ("mpsoc.end_cycle", "cycles"),
    ("mpsoc.icache_miss_ratio", "ratio"),
    ("mpsoc.dcache_miss_ratio", "ratio"),
    ("mpsoc.noc_flits", "count"),
    ("core.freeze_s", "s"),
    ("policy.transitions", "count"),
    ("core.window_s", "s"),
    ("core.dispatch_s", "s"),
    ("core.other_s", "s"),
    ("power.component_power_s", "s"),
    ("power.activity_s", "s"),
    ("thermal.sensors_s", "s"),
    ("policy.react_s", "s"),
    ("thermal.solve_s", "s"),
    ("thermal.factorizations", "count"),
    ("thermal.solves", "count"),
    ("thermal.reuse_ratio", "ratio"),
    ("thermal.network_for_s", "s"),
    ("thermal.network_builds", "count"),
    ("scenario.build_s", "s"),
    ("scenario.builds", "count"),
    ("scenario.from_dict_s", "s"),
    ("scenario.runner_self_s", "s"),
    ("trace.digest_s", "s"),
    ("trace.store_get_s", "s"),
    ("trace.store_put_s", "s"),
    ("trace.store_hits", "count"),
    ("trace.store_misses", "count"),
    ("trace.replay_share", "ratio"),
    ("trace.replay_setup_s", "s"),
    ("trace.capture_s", "s"),
    ("dse.run_self_s", "s"),
    ("dse.points_s", "s"),
    ("dse.pareto_s", "s"),
    ("window_p99_us", "us"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, it):
    """Per-layer metrics of one traced iteration (self times in seconds)."""
    from spans import ROOT

    own, total, calls, counts = (tracer.self_s, tracer.total_s,
                                 tracer.calls, tracer.counts)
    layer = it.layer
    return {
        "emulation.advance_s": own["emulation.advance"],
        "emulation.host_ns_per_instr": _ratio(
            own["emulation.advance"] * 1e9, it.instructions
        ),
        "emulation.calibrate_s": own["emulation.calibrate"],
        "emulation.calibrations": calls["emulation.calibrate"],
        "mpsoc.instructions": it.instructions,
        "mpsoc.end_cycle": layer["end_cycle"],
        "mpsoc.icache_miss_ratio": _ratio(layer["icache_misses"],
                                          layer["icache_accesses"]),
        "mpsoc.dcache_miss_ratio": _ratio(layer["dcache_misses"],
                                          layer["dcache_accesses"]),
        "mpsoc.noc_flits": layer["noc_flits"],
        "core.freeze_s": layer["freeze_s"],
        "policy.transitions": layer["transitions"],
        "core.window_s": total["core.window"],
        "core.dispatch_s": own["core.dispatch"],
        "core.other_s": own["core.window"],
        "power.component_power_s": own["power.component_power"],
        "power.activity_s": own["power.activity"],
        "thermal.sensors_s": own["thermal.sensors"],
        "policy.react_s": own["policy.react"],
        "thermal.solve_s": own["thermal.solve"],
        "thermal.factorizations": counts["factorizations"],
        "thermal.solves": counts["solves"],
        "thermal.reuse_ratio": 1.0 - _ratio(counts["factorizations"],
                                            counts["solves"]),
        "thermal.network_for_s": (own["thermal.network_for"]
                                  + own["thermal.network_build"]),
        "thermal.network_builds": calls["thermal.network_build"],
        "scenario.build_s": own["scenario.build"],
        "scenario.builds": calls["scenario.build"],
        "scenario.from_dict_s": own["scenario.from_dict"],
        "scenario.runner_self_s": own["scenario.run_batched"],
        "trace.digest_s": own["trace.digest"],
        "trace.store_get_s": own["trace.store_get"],
        "trace.store_put_s": own["trace.store_put"],
        "trace.store_hits": counts["store_hits"],
        "trace.store_misses": counts["store_misses"],
        "trace.replay_share": _ratio(layer["replayed"], layer["scenarios"]),
        "trace.replay_setup_s": own["trace.replay_setup"],
        "trace.capture_s": own["trace.capture"],
        "dse.run_self_s": own["dse.run"],
        "dse.points_s": own["dse.points"],
        "dse.pareto_s": own["dse.pareto"],
        "unattributed_share": _ratio(own[ROOT], total[ROOT]),
    }


def window_latencies(iterations):
    """Each window's median over ``iterations``, in reference seconds.

    Each window (each co-stepped group on ``dse_sweep``) recurs under
    its key in every iteration, so a burst or a garbage collection that
    slows one repeat of a window does not count.
    """
    return [
        statistics.median(it.latencies[key] * it.factor
                          for it in iterations if key in it.latencies)
        for key in iterations[0].latencies
    ]


def end_to_end(untraced):
    """End-to-end metrics over the untraced iterations.

    Every timing is converted to reference seconds by the gauge factor
    of its own iteration, so a phase of load from other tenants on the
    shared host scales the probes along with the workload and drops out
    (see README.md for the measured spread).  ``wall_s`` and ``setup_s``
    are medians over iterations (set-ups), ``window_p50_us`` the median
    of :func:`window_latencies`.
    """
    wall = statistics.median(it.wall_s * it.factor for it in untraced)
    setup = statistics.median(
        s * it.factor for it in untraced for s in it.setup_s
    )
    latencies = window_latencies(untraced)
    work = untraced[0]  # identical simulated work in every iteration
    return {
        "wall_s": wall,
        "setup_s": setup,
        "sim_ips": work.instructions / wall,
        "windows_per_s": work.windows / wall,
        "window_p50_us": percentile(latencies, 50) * 1e6,
        "designs_per_s": work.designs / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def measure(case, seconds, tracer, run_prefix):
    """Run iterations back to back until the budget is spent.

    Without a tracer the iterations run under a gauge, each with the
    gauge factor of its own probes; with one, iterations alternate
    untraced/traced in host seconds and no gauge runs (its probes would
    count as unattributed time).  A new iteration starts only while it
    is expected to end within the budget; at least two iterations always
    run, so the fingerprint is compared across repeats.
    """
    from gauge import Gauge

    untraced, traced = [], []
    start = time.perf_counter()
    number = 0
    gauge = Gauge(case.probe) if tracer is None else None
    with gauge or contextlib.nullcontext():
        while True:
            it = run_iteration(case, tracer, gauge, number, run_prefix)
            (traced if hasattr(it, "layer_metrics") else untraced).append(it)
            number += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(i.wall_s for i in untraced + traced)
            if number >= 2 and elapsed + typical > seconds:
                return untraced, traced


def run_iteration(case, tracer, gauge, number, run_prefix):
    """One iteration: under the gauge, traced (odd numbers with a
    tracer) or plainly timed."""
    if gauge is not None:
        since = gauge.mark()
        it = case.iteration(contextlib.nullcontext, gauge.clock)
        it.factor = gauge.factor(since)
    elif number % 2 == 1:
        tracer.reset()
        it = case.iteration(
            lambda: tracer.active(f"{run_prefix}-{number}"), time.perf_counter
        )
        it.layer_metrics = layer_metrics(tracer, it)
    else:
        it = case.iteration(contextlib.nullcontext, time.perf_counter)
    return it


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cases import CASES, Check
    from spans import Tracer

    if args.workload not in CASES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(CASES)})", file=sys.stderr)
        return 2

    case = CASES[args.workload](args.seed)
    case.warm_up()
    tracer = Tracer() if args.trace else None
    run_prefix = f"{args.workload}-seed{args.seed}"
    untraced, traced = measure(case, args.seconds, tracer, run_prefix)
    iterations = untraced + traced

    checks = case.checks(iterations)
    fingerprints = [json.dumps(it.stats, sort_keys=True) for it in iterations]
    checks.append(Check(
        "simulated-statistics fingerprint identical across runs",
        len(set(fingerprints)) == 1,
        f"{len(set(fingerprints))} distinct over {len(iterations)} runs",
    ))
    failed_checks = sum(not check.ok for check in checks)
    attempted = sum(it.designs for it in iterations) + len(checks)
    failed = sum(it.failed_designs for it in iterations) + failed_checks

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced iterations "
          f"(one warm-up before them, untimed)")
    print("iteration wall s: untraced "
          + " ".join(f"{it.wall_s:.3f}" for it in untraced)
          + (" | traced " + " ".join(f"{it.wall_s:.3f}" for it in traced)
             if traced else ""))
    if tracer is None:
        print("gauge factor (reference s per host s): "
              + " ".join(f"{it.factor:.3f}" for it in untraced))
    print(f"fingerprint {fingerprints[-1]}")
    for check in checks:
        print(check.line())
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if hasattr(case, "power_dev_pct"):
        print(f"power_dev_pct {case.power_dev_pct:.6g} %")

    if tracer is None:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)
        samples = len(untraced[0].latencies)
        print(f"window latency samples: {samples}, each the median of "
              f"{len(untraced)} repeats")
    else:
        values = {
            name: statistics.median(it.layer_metrics[name] for it in traced)
            for name in traced[0].layer_metrics
        }
        values["emulation.power_dev_pct"] = getattr(case, "power_dev_pct", 0.0)
        # Host seconds of the untraced iterations (no gauge runs here).
        values["window_p99_us"] = percentile(window_latencies(untraced), 99) * 1e6
        values["trace_overhead_pct"] = statistics.median(
            (t.wall_s / u.wall_s - 1.0) * 100.0
            for u, t in zip(untraced, traced)
        )
        metrics = {name: values[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        spans_path = HERE / "out" / f"spans-{run_prefix}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(HERE.parent)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
