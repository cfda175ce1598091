"""A serial run steps from whatever its solver holds.

``step_window()`` is a group of one, and the group reads the member's
``solver.temperatures`` every window: a ``reset()``,
``step_be(dt, sources)`` or ``steady_state(sources)`` on the run's
solver between two windows takes effect on the next window, on either
backend.  A group that stacked the temperatures once, when it was
formed, would go on from its own copy.
"""

import numpy as np
import pytest

from repro.scenario.presets import PRESETS
from repro.trace.capture import PowerTraceCapture

WINDOWS = 50

#: Preset -> the solver backend its configuration names.
PRESET_BACKENDS = {"matrix_tm_cached": "cached_lu", "matrix_tm_dfs": "sparse_be"}


def last_sources(framework):
    """Per-cell sources of the last window's captured watts."""
    [capture] = framework.captures
    return framework.network.injection(capture._power[capture.windows - 1])


INTERVENTIONS = {
    "reset": lambda framework: framework.solver.reset(),
    "step_be": lambda framework: framework.solver.step_be(
        framework.config.sampling_period_s, last_sources(framework)
    ),
    "steady_state": lambda framework: framework.solver.steady_state(
        last_sources(framework)
    ),
}


def warm_twins(preset):
    """Two identical runs of ``preset``, each ``WINDOWS`` windows in,
    each capturing its watts."""
    twins = [PRESETS.get(preset)().build() for _ in range(2)]
    for framework in twins:
        assert framework.solver.backend.name == PRESET_BACKENDS[preset]
        framework.attach_capture(PowerTraceCapture())
        for _ in range(WINDOWS):
            framework.step_window()
    return twins


@pytest.mark.parametrize("intervention", sorted(INTERVENTIONS))
@pytest.mark.parametrize("preset", sorted(PRESET_BACKENDS))
def test_the_solver_state_between_windows_is_where_the_next_window_starts(
    preset, intervention
):
    touched, untouched = warm_twins(preset)
    INTERVENTIONS[intervention](touched)
    start = touched.solver.temperatures.copy()
    row, twin_row = touched.step_window(), untouched.step_window()
    assert not np.array_equal(row.temps, twin_row.temps)
    # The window stepped from ``start`` and left its result with the solver.
    assert not np.array_equal(touched.solver.temperatures, start)
    assert np.array_equal(
        touched.network.component_temperatures(touched.solver.temperatures),
        row.temps,
    )


@pytest.mark.parametrize("preset", sorted(PRESET_BACKENDS))
def test_a_reset_between_windows_restarts_from_ambient(preset):
    touched, untouched = warm_twins(preset)
    ambient = touched.network.properties.ambient
    touched.solver.reset()
    row, twin_row = touched.step_window(), untouched.step_window()
    assert twin_row.max_temp_k > ambient + 10.0
    assert ambient <= row.max_temp_k < ambient + 2.0
