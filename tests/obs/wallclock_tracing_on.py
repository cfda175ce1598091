"""The tracing-on tax, measured end to end in wall-clock time.

With a tracer active the window driver records five span events per
window plus the run span.  Gate: on the default preset's ``windowed``
run (the highest window rate in the repo), tracing costs < 5 % of the
untraced run's wall time, taken as the median of 7 off/on pairs.  Each
pair times fresh builds in alternating order, and each side of a pair
is its fastest of a few repeats, so one preempted run cannot decide a
pair.

A run lasts ~6 ms, so a 5 % bar is only resolved on a quiet host: on a
shared 2-vCPU VM, untraced-against-untraced pairs alone cross it in
about one trial in ten.  The file is therefore not named ``test_*.py``
and the default test run does not collect it; CI runs it by path,
without coverage:

    PYTHONPATH=src python -m pytest tests/obs/wallclock_tracing_on.py
"""

import math
import time

from repro.obs import tracing as obs_tracing
from repro.obs.tracing import SpanTracer
from tests.conftest import PRESET_SIZES, quickstart_scenario

PAIRS = 7  # off/on pairs; the gate is their median
REPEATS = 3  # runs per side of a pair; the fastest counts
ENABLED_BAR_PCT = 5.0


def timed_run(traced):
    """Build the preset, then time its run; returns (seconds, report)."""
    framework = quickstart_scenario("windowed", **PRESET_SIZES).build()
    if not traced:
        start = time.perf_counter()
        report = framework.run()
        return time.perf_counter() - start, report
    tracer = SpanTracer()
    start = time.perf_counter()
    with obs_tracing.activate(tracer):
        report = framework.run()
    seconds = time.perf_counter() - start
    assert len(tracer.events) == 5 * report.windows + 1
    return seconds, report


def test_tracing_on_costs_under_five_percent_of_a_run():
    timed_run(traced=False)  # warm the calibration and network caches
    overheads = []
    for pair in range(PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        best = {False: math.inf, True: math.inf}
        for _ in range(REPEATS):
            for traced in order:
                seconds, _report = timed_run(traced)
                best[traced] = min(best[traced], seconds)
        overheads.append((best[True] - best[False]) / best[False] * 100.0)
    enabled_pct = sorted(overheads)[PAIRS // 2]
    assert enabled_pct < ENABLED_BAR_PCT, (
        f"tracing costs {enabled_pct:.2f}% of an untraced run "
        f"(per-pair: {', '.join(f'{o:.1f}' for o in sorted(overheads))})"
    )
