"""The DSE evaluation loop: sweep, measure, prune, refine.

``run_dse`` takes a list of :class:`~repro.dse.space.DesignPoint`
objects, evaluates every one through a single
:meth:`~repro.scenario.runner.Runner.run_batched` call (structure-
sharing groups co-step through shared multi-RHS thermal solves; the
trace store dedups the thermal-grid twins into replays), distills one
metric row per design, prunes the rows with
:func:`~repro.dse.pareto.pareto_front`, and finally re-runs the top
front designs through :func:`~repro.policy.comparison.compare_policies`
so the report shows how a reactive policy changes the winners.

The returned dict is plain JSON data — the ``pareto_front`` report
artifact and the ``python -m repro dse`` CLI both consume it.
"""

from repro.dse.pareto import OBJECTIVES, pareto_front
from repro.dse.space import default_points, point_scenario
from repro.policy.comparison import compare_policies
from repro.scenario.runner import Runner


def _mean_power_w(trace):
    """Mean per-window total platform power over a ThermalTrace."""
    powers = [] if trace is None else trace.powers()
    if not powers:
        return float("nan")
    return sum(powers) / len(powers)


def metric_row(point, result):
    """One JSON-compatible metric row for a finished design point."""
    report = result.report
    emulated = report.emulated_seconds
    row = point.to_dict()
    row.update(
        design=point.label,
        peak_temperature_k=report.peak_temperature_k,
        avg_power_w=_mean_power_w(result.trace),
        throughput_ips=(report.instructions / emulated) if emulated > 0 else 0.0,
        replayed=result.replayed,
        windows=report.windows,
    )
    return row


def run_dse(
    points=None,
    max_windows=12,
    sampling_period_s=1e-4,
    refine_top=2,
    refine_policies=("none", "dual_threshold"),
    runner=None,
):
    """Evaluate a design space and return its Pareto report dict.

    ``points`` defaults to the full 1008-configuration space of
    :func:`repro.dse.space.default_points`.  ``refine_top`` front
    designs (highest throughput first) are re-run through
    :func:`compare_policies` with ``refine_policies``; pass 0 to skip
    the refinement stage.
    """
    if points is None:
        points = default_points()
    points = list(points)
    scenarios = [
        point_scenario(p, max_windows=max_windows,
                       sampling_period_s=sampling_period_s)
        for p in points
    ]
    if runner is None:
        # capture_trace feeds the power metric; the in-memory trace
        # store turns every thermal-grid twin into a replay.
        runner = Runner(capture_trace=True, trace_store=True)
    results = runner.run_batched(scenarios)

    rows, errors = [], {}
    for point, result in zip(points, results):
        if result.ok:
            rows.append(metric_row(point, result))
        else:
            errors[point.label] = result.error
    front, dominated = pareto_front(rows)

    refinement = {}
    by_throughput = sorted(
        front, key=lambda r: r["throughput_ips"], reverse=True
    )
    for row in by_throughput[: max(0, refine_top)]:
        point = points[[p.label for p in points].index(row["design"])]
        base = point_scenario(point, max_windows=max_windows,
                              sampling_period_s=sampling_period_s)
        comparison = compare_policies(base, list(refine_policies))
        refinement[row["design"]] = comparison.to_dict()

    return {
        "evaluated": len(rows),
        "failed": len(errors),
        "errors": errors,
        "replayed": sum(1 for r in rows if r["replayed"]),
        "objectives": [list(obj) for obj in OBJECTIVES],
        "front": front,
        "front_size": len(front),
        "dominated": len(dominated),
        "policy_refinement": refinement,
    }
