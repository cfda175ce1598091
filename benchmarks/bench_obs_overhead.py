"""Observability overhead: the repro.obs hot-path tax, gated.

The per-window instrumentation in the window driver
(``repro.core.framework.step_windows``) promises to be near-free when tracing is off: one module attribute read
and an ``is None`` branch per window (the phase accumulators existed
before :mod:`repro.obs`).  This bench holds the layer to that promise
two ways:

* **Disabled (modeled)** — a microbenchmark times the exact guard the
  hot loop runs (``obs_tracing.ACTIVE`` read + ``is None`` branch), and
  the cost is expressed as a fraction of one steady-state ``windowed``
  backend window.  Gate: < 1%.  Modeled rather than differenced because
  a sub-0.1% effect drowns in run-to-run noise — the guard cost itself
  is what the instrumentation added, so it is measured directly.
* **Enabled (measured)** — interleaved pairs of full runs, tracing off
  vs tracing on (in-memory :class:`~repro.obs.tracing.SpanTracer`, five
  span events per window plus the run span), median of k.  Gate: < 5%.

Check mode (``python benchmarks/bench_obs_overhead.py --check``, run in
CI) asserts both gates with minimal output.  ``--json`` persists the
measurements to ``benchmarks/results/BENCH_obs.json``.
"""

import argparse
import json
import pathlib
import sys
import time

from repro.emulation.windowed import clear_calibration_cache
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import SpanTracer
from repro.scenario.presets import PRESETS
from repro.util.records import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DEFAULT_ITERATIONS = 40    # MATRIX platform iterations: ~9 windows at 1 ms
SAMPLING_PERIOD_S = 0.001  # 100k cycles/window at the preset's 100 MHz
DEFAULT_PAIRS = 7          # off/on run pairs; medians beat the noise
GUARD_SAMPLES = 200_000    # guard microbenchmark iterations

DISABLED_BAR_PCT = 1.0     # modeled guard cost per window
ENABLED_BAR_PCT = 5.0      # measured full-tracing tax


def make_scenario(iterations=DEFAULT_ITERATIONS):
    """The default preset on the fast windowed backend — the highest
    window rate in the repo, i.e. the worst case for per-window tax."""
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.workload.params["iterations"] = iterations
    scenario.config.sampling_period_s = SAMPLING_PERIOD_S
    scenario.config.emulation_backend = "windowed"
    return scenario


def run_once(iterations, traced):
    """One full build + run; returns ``(wall_seconds, windows)``."""
    framework = make_scenario(iterations).build()
    start = time.perf_counter()
    if traced:
        with obs_tracing.activate(SpanTracer()):
            report = framework.run()
    else:
        report = framework.run()
    return time.perf_counter() - start, report.windows


def guard_cost_seconds(samples=GUARD_SAMPLES):
    """Per-call cost of the tracing-off guard the window loop runs."""
    start = time.perf_counter()
    for _ in range(samples):
        tracer = obs_tracing.ACTIVE
        if tracer is not None:  # pragma: no cover - tracing is off here
            raise AssertionError("tracing must be off during the guard bench")
    return (time.perf_counter() - start) / samples


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def measure(iterations=DEFAULT_ITERATIONS, pairs=DEFAULT_PAIRS):
    """Run the harness; returns the machine-readable payload."""
    clear_calibration_cache()
    run_once(iterations, traced=False)  # warm calibration + caches
    off_walls, on_walls = [], []
    windows = 0
    for _ in range(pairs):
        wall, windows = run_once(iterations, traced=False)
        off_walls.append(wall)
        wall, _ = run_once(iterations, traced=True)
        on_walls.append(wall)
    off = _median(off_walls)
    on = _median(on_walls)
    seconds_per_window = off / max(windows, 1)
    guard = guard_cost_seconds()
    return {
        "scenario": "matrix_quickstart",
        "backend": "windowed",
        "iterations": iterations,
        "sampling_period_s": SAMPLING_PERIOD_S,
        "pairs": pairs,
        "windows": windows,
        "median_wall_off_s": off,
        "median_wall_on_s": on,
        "seconds_per_window": seconds_per_window,
        "guard_cost_ns": guard * 1e9,
        "disabled_overhead_pct": guard / seconds_per_window * 100.0,
        "enabled_overhead_pct": (on - off) / off * 100.0,
        "disabled_bar_pct": DISABLED_BAR_PCT,
        "enabled_bar_pct": ENABLED_BAR_PCT,
    }


def enforce(payload):
    """Raise AssertionError when either overhead gate is violated."""
    disabled = payload["disabled_overhead_pct"]
    assert disabled < DISABLED_BAR_PCT, (
        f"tracing-off guard costs {disabled:.3f}% of a window "
        f"(bar {DISABLED_BAR_PCT:g}%)"
    )
    enabled = payload["enabled_overhead_pct"]
    assert enabled < ENABLED_BAR_PCT, (
        f"tracing-on runs are {enabled:.2f}% slower than tracing-off "
        f"(bar {ENABLED_BAR_PCT:g}%)"
    )


def render(payload):
    """The human-readable report for the full bench."""
    table = Table(
        ["mode", "median wall (ms)", "overhead", "bar"],
        title=(
            f"Observability overhead (windowed backend, "
            f"{payload['windows']} windows x {payload['pairs']} pairs, "
            f"{payload['seconds_per_window'] * 1e6:.0f} us/window)"
        ),
    )
    table.add_row(
        "tracing off (modeled guard)",
        f"{payload['median_wall_off_s'] * 1e3:.2f}",
        f"{payload['disabled_overhead_pct']:.4f}%",
        f"< {payload['disabled_bar_pct']:g}%",
    )
    table.add_row(
        "tracing on (measured)",
        f"{payload['median_wall_on_s'] * 1e3:.2f}",
        f"{payload['enabled_overhead_pct']:.2f}%",
        f"< {payload['enabled_bar_pct']:g}%",
    )
    lines = [str(table), ""]
    lines.append(
        f"guard cost: {payload['guard_cost_ns']:.0f} ns per window "
        f"(one module read + `is None`); five span events per window "
        f"when a tracer is active"
    )
    return "\n".join(lines)


def write_json(payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry points (benchmarks/ is run explicitly, not by tier-1) ------

def test_obs_overhead(report):
    payload = measure()
    enforce(payload)
    report("obs_overhead", render(payload))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the <1%% disabled / <5%% enabled gates (CI mode)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="also write benchmarks/results/BENCH_obs.json",
    )
    parser.add_argument(
        "--iterations", type=int, default=DEFAULT_ITERATIONS,
        help=f"MATRIX platform iterations (default {DEFAULT_ITERATIONS})",
    )
    parser.add_argument(
        "--pairs", type=int, default=DEFAULT_PAIRS,
        help=f"off/on run pairs to median over (default {DEFAULT_PAIRS})",
    )
    args = parser.parse_args(argv)
    payload = measure(iterations=args.iterations, pairs=args.pairs)
    enforce(payload)
    if args.as_json:
        print(f"wrote {write_json(payload)}")
    if args.check:
        print(
            f"obs overhead ok: disabled "
            f"{payload['disabled_overhead_pct']:.4f}% "
            f"(bar {DISABLED_BAR_PCT:g}%), enabled "
            f"{payload['enabled_overhead_pct']:.2f}% "
            f"(bar {ENABLED_BAR_PCT:g}%)"
        )
        return 0
    print(render(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
