"""The tracing-off tax on the fastest window loop in the repo.

The per-window instrumentation in the window driver promises to be
near-free when tracing is off: one module attribute read and an
``is None`` branch per window.  A sub-0.1 % effect drowns in run-to-run
wall-clock noise, so the guard itself is timed in a tight loop and
expressed as a fraction of one window of the untraced run.  The
tracing-on tax is measured end to end in ``wallclock_tracing_on.py``.
"""

import time

from repro.obs import tracing as obs_tracing
from tests.conftest import PRESET_SIZES, quickstart_scenario

GUARD_SAMPLES = 200_000
DISABLED_BAR_PCT = 1.0  # guard cost per window


def test_tracing_off_guard_costs_under_one_percent_of_a_window():
    # The default preset on the windowed backend: the highest window
    # rate in the repo, i.e. the worst case for a per-window tax.
    scenario = quickstart_scenario("windowed", **PRESET_SIZES)
    scenario.build().run()  # warm the calibration and network caches
    framework = scenario.build()
    start = time.perf_counter()
    report = framework.run()
    seconds_per_window = (time.perf_counter() - start) / report.windows

    start = time.perf_counter()
    for _ in range(GUARD_SAMPLES):
        tracer = obs_tracing.ACTIVE
        if tracer is not None:  # pragma: no cover - tracing is off here
            raise AssertionError("tracing must be off during the guard timing")
    guard = (time.perf_counter() - start) / GUARD_SAMPLES

    disabled_pct = guard / seconds_per_window * 100.0
    assert disabled_pct < DISABLED_BAR_PCT, (
        f"tracing-off guard costs {disabled_pct:.3f}% of a window"
    )
