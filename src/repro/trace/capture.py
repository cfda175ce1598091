"""Recording the dispatcher boundary of a live co-emulation run.

:class:`PowerTraceCapture` attaches to an
:class:`~repro.core.framework.EmulationFramework` (via
``framework.attach_capture``) and records, for every sampling window,
the full per-component power vector at the Ethernet-dispatcher
boundary.  The window's virtual frequency, emulated end time and
component temperatures are already in the framework's
:class:`~repro.core.stats.ThermalTrace`; the archive takes them from
there.  :func:`record` is the one-call front-end: build a scenario's
framework, capture its run and return the finished
:class:`~repro.trace.format.TraceArchive`.

The recorded power vector is the one the window passed to
:meth:`~repro.thermal.rc_network.RCNetwork.injection` (same component
order, same float64 values), which is what makes replay under unchanged
thermal knobs bit-for-bit faithful.
"""

import math
from collections.abc import Mapping

import numpy as np

from repro.core.stats import put_row
from repro.trace.format import TRACE_FORMAT_VERSION, TraceArchive


def _json_safe(value):
    """Replace non-finite floats with ``None`` recursively — a
    zero-window run's NaN peak temperature must not leak a bare ``NaN``
    token into the JSON metadata sidecar."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


class PowerTraceCapture:
    """Accumulates one run's injected power, window by window."""

    def __init__(self):
        self.component_names = None
        # Power rows in a matrix that doubles when full (as the trace's).
        self._power = None
        self.windows = 0
        self._first = None  # the framework trace row of the first window

    # -- the framework hook ------------------------------------------------
    def on_window(self, framework, watts):
        """Record one window (called from ``_window_commit``, before the
        window enters ``framework.trace``).

        ``watts`` is the vector the window injected, in network
        component order (a hand-fed ``{component: watts}`` map goes
        through the network's own conversion).
        """
        if self.component_names is None:
            self._start(framework)
        if isinstance(watts, Mapping):
            watts = framework.network.watts_vector(watts)
        self._power = put_row(self._power, self.windows, watts)
        self.windows += 1

    def _start(self, framework):
        """Take the component order (and the matrix's width) from the
        framework's network, and the first window's trace row."""
        self.component_names = tuple(framework.network.component_names)
        self._power = np.empty((0, len(self.component_names)))
        self._first = len(framework.trace)

    # -- archive assembly --------------------------------------------------
    def to_archive(self, framework, scenario=None, report=None,
                   scenario_digest=None):
        """Assemble the recorded stream into a validated archive.

        ``scenario`` (a :class:`~repro.scenario.spec.Scenario` or its
        dict) and ``report`` stamp provenance into the metadata; without
        a scenario the archive gets a content-derived digest and cannot
        enter a :class:`~repro.trace.store.TraceStore` keyed by scenario.
        """
        from repro.trace.store import scenario_trace_digest

        if self.component_names is None:
            # Zero windows recorded: fall back to the network's order so
            # the archive still validates (and says "0 windows").
            self._start(framework)
        count = self.windows
        time_s, frequency_hz, temps = framework.trace.columns(
            self._first, self._first + count
        )
        scenario_dict = None
        if scenario is not None:
            scenario_dict = (
                scenario if isinstance(scenario, dict) else scenario.to_dict()
            )
        if scenario_digest is None and scenario_dict is not None:
            scenario_digest = scenario_trace_digest(scenario_dict)
        metadata = {
            "format_version": TRACE_FORMAT_VERSION,
            "components": list(self.component_names),
            "sampling_period_s": framework.config.sampling_period_s,
            "scenario_digest": scenario_digest,
            "scenario": scenario_dict,
            "config": framework.config.to_dict(),
            # Which EMULATION_BACKENDS entry produced this stream (None
            # when the framework was handed a prebuilt workload object).
            "emulation_backend": framework.emulation_backend,
            "floorplan": framework.floorplan.name,
            "windows": count,
            "trace_digest": framework.trace.digest(),
            "report": (
                _json_safe(report.to_dict()) if report is not None else None
            ),
        }
        archive = TraceArchive(
            power_w=self._power[:count].copy(),
            frequency_hz=frequency_hz,
            time_s=time_s,
            component_temps_k=temps,
            metadata=metadata,
        )
        if scenario_digest is None:
            # Unscripted capture: derive a stable digest from the content
            # itself so the archive still self-identifies.
            from repro.trace.store import content_digest

            archive.metadata["scenario_digest"] = content_digest(archive)
        return archive.validate()


def record(scenario, library=None):
    """Run ``scenario`` live with a capture attached.

    Returns ``(framework, report, archive)`` — the same framework/report
    a plain :meth:`~repro.scenario.spec.Scenario.run` yields, plus the
    recorded boundary stream, ready for
    :class:`~repro.trace.store.TraceStore.put` or
    :meth:`~repro.trace.format.TraceArchive.save`.
    """
    framework = scenario.build(library=library)
    capture = framework.attach_capture(PowerTraceCapture())
    report = framework.run(*scenario.bounds)
    archive = capture.to_archive(framework, scenario=scenario, report=report)
    return framework, report, archive
