"""Driving the SW thermal side straight from a recorded archive.

A :class:`ReplaySource` is the same
:class:`~repro.core.framework.ThermalSide` a live run is, fed by a
recorded power stream.  It supplies only the replay-specific half of a
window — the recorded power
injection (``_window_power``) and the commit at the recorded time
(``_window_commit``) — and leaves the loop to the one window driver
(:func:`~repro.core.framework.step_windows` /
:func:`~repro.core.framework.run_windows`), which also steps live
:class:`~repro.core.framework.EmulationFramework` runs and the batched
multi-RHS co-step in :meth:`repro.scenario.runner.Runner.run_batched`.
Serial, co-stepped and replayed windows therefore share one window
order, one thermal solve and one phase timing, whether the power stream
comes from a live emulated platform or from a
:class:`~repro.trace.format.TraceArchive`.

What replay recomputes is exactly the SW half of Figure 5: RC-network
integration, component readout, sensor crossings.  The HW half
(platform, workload, VPCM, Ethernet congestion) is taken verbatim from
the recording, which is why the **thermal-side knobs are free at replay
time**: floorplan discretization (``grid_mode``, ``die_resolution``,
``spreader_resolution``, ``refine_critical``), material
``properties``, the ``solver_backend`` and the initial temperature can
all differ from the recorded run.  Replaying with unchanged knobs
reproduces the live run's :meth:`~repro.core.stats.ThermalTrace.digest`
bit-for-bit (same float64 power vectors, same solve sequence).
"""

import time
from dataclasses import replace

import numpy as np

from repro.core.framework import (
    FrameworkConfig,
    RunReport,
    ThermalSide,
    run_windows,
    step_windows,
)
from repro.trace.store import THERMAL_SIDE_KEYS


def _resolve_floorplan(spec, archive):
    """A floorplan object from an override (name or object) or the
    recording's own scenario."""
    if spec is None:
        scenario = archive.scenario or {}
        spec = scenario.get("floorplan") or archive.metadata.get("floorplan")
        if spec is None:
            raise ValueError(
                "archive records no floorplan; pass floorplan=... explicitly"
            )
    if isinstance(spec, str):
        from repro.scenario.registry import FLOORPLANS

        return FLOORPLANS.get(spec)()
    if isinstance(spec, dict):
        # The scenario layer's parameterized form ({"name", "params"}).
        from repro.scenario.registry import FLOORPLANS

        return FLOORPLANS.get(spec["name"])(**spec.get("params", {}))
    return spec


def replay_config(archive, config=None):
    """The :class:`FrameworkConfig` a replay runs under.

    ``config`` may be ``None`` (recorded config verbatim), a ready
    :class:`FrameworkConfig`, or a dict of overrides merged over the
    recorded config.  The sampling period is pinned to the recording —
    each archived power vector *is* one recorded period of activity, so
    integrating it over a different ``dt`` would misrepresent the run.
    """
    recorded = dict(archive.metadata.get("config") or {})
    if config is None:
        merged = recorded
    elif isinstance(config, FrameworkConfig):
        merged = config.to_dict()
    elif isinstance(config, dict):
        merged = dict(recorded)
        merged.update(config)
    else:
        raise TypeError(
            f"config must be None, a FrameworkConfig or an override "
            f"dict, got {type(config).__name__}"
        )
    period = merged.get("sampling_period_s", archive.sampling_period_s)
    if abs(period - archive.sampling_period_s) > 1e-15:
        raise ValueError(
            f"cannot replay a {archive.sampling_period_s:g} s-period "
            f"recording under a {period:g} s sampling period; the power "
            f"windows are period-long by construction"
        )
    merged["sampling_period_s"] = archive.sampling_period_s
    return FrameworkConfig.from_dict(merged)


class ReplaySource(ThermalSide):
    """One replayable run: a recorded boundary stream + a fresh SW side."""

    def __init__(self, archive, config=None, floorplan=None, properties=None,
                 source=None):
        archive.validate()
        self.archive = archive
        self.config = replay_config(archive, config)
        self.floorplan = _resolve_floorplan(floorplan, archive)
        self.properties = properties
        self.source = source  # provenance label ("memory", a store path…)
        super().__init__(self.floorplan, self.config, properties=properties)
        recorded = set(archive.components)
        present = set(self.network.component_names)
        if recorded != present:
            missing = sorted(recorded - present)
            extra = sorted(present - recorded)
            raise ValueError(
                f"floorplan {self.floorplan.name!r} does not match the "
                f"recording's component set"
                + (f"; recording-only: {', '.join(missing)}" if missing else "")
                + (f"; floorplan-only: {', '.join(extra)}" if extra else "")
            )
        # Recorded column -> network component index (orders may differ
        # after a floorplan override; injection must follow the network).
        self._column_of = np.array(
            [archive.components.index(name)
             for name in self.network.component_names]
        )
        self._time = 0.0

    # -- the replayed closed loop -----------------------------------------
    @property
    def exhausted(self):
        return self.windows >= self.archive.windows

    def bounds_reached(self, max_emulated_seconds=None, max_windows=None,
                       max_stall_windows=None):
        """Same contract as the framework's; the recording's end acts as
        the workload-done condition."""
        if self.exhausted:
            return True
        if (
            max_emulated_seconds is not None
            and self._time >= max_emulated_seconds - 1e-12
        ):
            return True
        return max_windows is not None and self.windows >= max_windows

    def _window_power(self):
        """Inject the next recorded power vector; no platform runs, so
        the injection is the window's whole ``dispatch`` time."""
        t0 = time.perf_counter()
        index = self.windows
        if index >= self.archive.windows:
            raise IndexError(
                f"recording exhausted after {self.archive.windows} windows"
            )
        # The recording's float64 vector, reordered to the network's
        # component order — the root of bit-for-bit replay fidelity.
        watts = self.archive.power_w[index][self._column_of]
        self.network.set_power(watts)
        frequency = float(self.archive.frequency_hz[index])
        self.timing["dispatch"] += time.perf_counter() - t0
        return watts, frequency

    def _window_commit(self, watts, frequency):
        """The framework's commit at the recorded time, without a policy."""
        now = float(self.archive.time_s[self.windows])
        self._time = now
        return self.commit(self.sense(watts, frequency, now))

    def step_window(self):
        """Replay exactly one recorded sampling window."""
        return step_windows((self,))[0]

    def run(self, max_emulated_seconds=None, max_windows=None,
            max_stall_windows=None):
        """Replay to the recording's end (or an earlier bound)."""
        run_windows([self], [(max_emulated_seconds, max_windows,
                              max_stall_windows)])
        return self.report()

    # -- reporting ---------------------------------------------------------
    def overrides(self):
        """The thermal-side knobs this replay changed vs. the recording."""
        recorded = dict(self.archive.metadata.get("config") or {})
        current = self.config.to_dict()
        changed = {
            key: current.get(key)
            for key in THERMAL_SIDE_KEYS
            if key in current and current.get(key) != recorded.get(key)
        }
        scenario = self.archive.scenario or {}
        recorded_plan = scenario.get("floorplan") or self.archive.metadata.get(
            "floorplan"
        )
        if isinstance(recorded_plan, dict):
            # Parameterized floorplans compare by built name: the
            # capture side records ``framework.floorplan.name``, which
            # the factory derives deterministically from its params.
            recorded_plan = _resolve_floorplan(recorded_plan, self.archive).name
        if recorded_plan is not None and self.floorplan.name != recorded_plan:
            changed["floorplan"] = self.floorplan.name
        if self.properties is not None:
            changed["properties"] = "custom"
        return changed

    def report(self):
        """A normal :class:`RunReport` with provenance in
        ``extras["replay"]``.

        Emulation-side facts (board time, freezes, dispatcher stats,
        instructions, workload completion) are the recording's own — the
        replay never re-derives them; thermal-side facts (peak/final
        temperature, cell count) and the phase ``timing`` are the
        replay's own.  A replay
        truncated before the recording's end falls back to what it
        actually observed.
        """
        recorded = self.archive.metadata.get("report") or {}
        if self.exhausted and recorded:
            base = RunReport.from_dict(recorded)
        else:
            frequencies = self.archive.frequency_hz[: max(self.windows, 1)]
            base = RunReport(
                emulated_seconds=self._time,
                fpga_real_seconds=self._time,
                windows=self.windows,
                workload_done=False,
                peak_temperature_k=float("nan"),
                final_temperature_k=float("nan"),
                freeze_breakdown={},
                frequency_transitions=int(
                    np.count_nonzero(np.diff(frequencies))
                ),
                dispatcher={},
            )
        extras = dict(base.extras)
        extras["thermal_cells"] = self.network.num_cells
        extras["timing"] = dict(self.timing)
        extras["replay"] = {
            "scenario_digest": self.archive.scenario_digest,
            "recorded_windows": self.archive.windows,
            "replayed_windows": self.windows,
            "source": self.source or "archive",
            "overrides": self.overrides(),
        }
        return replace(
            base,
            windows=self.windows,
            peak_temperature_k=self.peak_temp_k,
            final_temperature_k=self.final_temp_k,
            extras=extras,
        )


def replay(archive, config=None, floorplan=None, properties=None,
           max_windows=None, source=None):
    """Replay an archive end to end.

    Returns ``(source, report)`` — mirror of
    :meth:`repro.scenario.spec.Scenario.run`.
    """
    player = ReplaySource(
        archive, config=config, floorplan=floorplan, properties=properties,
        source=source,
    )
    report = player.run(max_windows=max_windows)
    return player, report


def replay_for_scenario(archive, scenario, source=None):
    """A :class:`ReplaySource` configured by a *requesting* scenario —
    the runner's transparent-replay entry point: the scenario's own
    thermal knobs (and floorplan) apply, the recording supplies the
    boundary stream."""
    return ReplaySource(
        archive,
        config=scenario.config,
        floorplan=scenario.floorplan,
        source=source,
    )
