"""The HW/SW co-emulation framework (Sections 4-6, Figure 5).

``EmulationFramework`` owns one emulated platform, its statistics
fabric, the VPCM, the Ethernet dispatcher and the SW thermal tool, and
runs the paper's closed loop: every sampling period (10 ms of emulated
time by default) the window's activity statistics are converted to
power, streamed to the thermal solver, integrated into new cell
temperatures, fed back to the temperature sensors, and acted upon by the
run-time thermal-management policy through the VPCM.
"""

import numbers
import weakref
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.core.dispatcher import BramBuffer, EthernetDispatcher
from repro.core.sniffers import SnifferBank
from repro.core.stats import ThermalTrace, WindowRow
from repro.core.vpcm import FREEZE_ETHERNET, Vpcm
from repro.emulation.backends import EMULATION_BACKENDS, make_emulation_backend
from repro.emulation.ethernet import EthernetLink
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.obs.timeline import PHASE_ORDER
from repro.policy.builtin import NoManagementPolicy
from repro.power.models import TECH_NODES, PowerModel, make_tech_node
from repro.thermal.backends import SOLVER_BACKENDS, CachedLU, make_backend
from repro.thermal.rc_network import network_for
from repro.thermal.sensors import SensorBank
from repro.thermal.solver import ThermalSolver
from repro.util.jsondata import check_keys, json_copy
from repro.util.registry import canonical_spec
from repro.util.units import MHZ, MS


#: Knobs written in the registry spec grammar, with their make functions
#: and registries.  ``FrameworkConfig`` looks a bare name up in its
#: registry and builds (and discards) a dict spec, so a bad spec fails
#: at config time and not in a worker.  Live objects are refused: the
#: config must stay JSON data that gives each framework its own
#: backend.  ``tech_node`` also takes ``None`` or a ``TechNode.to_dict()``.
_SPEC_KNOBS = (
    ("solver_backend", make_backend, SOLVER_BACKENDS),
    ("emulation_backend", make_emulation_backend, EMULATION_BACKENDS),
    ("tech_node", make_tech_node, TECH_NODES),
)


#: ``(knobs, types, what)``: the knobs that hold a number, and those
#: that hold an integer.  A bool is neither; only
#: ``initial_temperature_kelvin`` may also be ``None``.  The built-in
#: types come first, so the usual value passes without the ABC check
#: (about 1 us a knob, paid by every scenario a sweep generates).
_NUMBER_KNOBS = (
    (("sampling_period_s", "virtual_hz", "physical_hz", "sensor_upper_kelvin",
      "sensor_lower_kelvin", "ethernet_bandwidth_bps",
      "initial_temperature_kelvin"), (float, int, numbers.Real), "a number"),
    (("refine_critical", "bram_capacity_bytes"), (int, numbers.Integral),
     "an integer"),
)


@dataclass
class FrameworkConfig:
    """Knobs of the co-emulation loop (the Figure 5 "floorplan definition"
    phase fixes these before launch)."""

    sampling_period_s: float = 10 * MS  # granularity of temperature updates
    virtual_hz: float = 100 * MHZ  # initial emulated clock
    physical_hz: float = 100 * MHZ  # board oscillator
    sensor_upper_kelvin: float = 350.0
    sensor_lower_kelvin: float = 340.0
    monitored_components: tuple | None = None  # default: every active component
    grid_mode: str = "component"
    refine_critical: int = 1
    die_resolution: tuple = (8, 8)  # uniform-mode die grid (cells x, y)
    spreader_resolution: tuple = (3, 3)
    ethernet_bandwidth_bps: float = 100e6
    bram_capacity_bytes: int = 64 * 1024
    initial_temperature_kelvin: float | None = None  # default: ambient
    solver_backend: str | dict = "sparse_be"  # see repro.thermal.backends
    emulation_backend: str | dict = "event_driven"  # see repro.emulation.backends
    tech_node: str | dict | None = None  # see repro.power.models.TECH_NODES

    def __post_init__(self):
        self._check_types()
        if self.sampling_period_s <= 0:
            raise ValueError("sampling period must be positive")
        if self.virtual_hz <= 0:
            raise ValueError("initial virtual frequency must be positive")
        if self.physical_hz <= 0:
            raise ValueError("physical board frequency must be positive")
        if (
            self.initial_temperature_kelvin is not None
            and self.initial_temperature_kelvin <= 0
        ):
            raise ValueError(
                f"initial temperature must be positive kelvin, "
                f"got {self.initial_temperature_kelvin}"
            )
        for knob, make, registry in _SPEC_KNOBS:
            spec = getattr(self, knob)
            if not isinstance(spec, (str, dict)) and not (
                knob == "tech_node" and spec is None
            ):
                raise ValueError(
                    f"{knob} must be plain data, a registered name or "
                    f"{{'name': ..., 'params': ...}} dict, "
                    f"got {type(spec).__name__}"
                )
            if isinstance(spec, str):
                registry.get(spec)
            else:
                make(spec)
            setattr(self, knob, canonical_spec(spec))
        if self.sensor_upper_kelvin <= self.sensor_lower_kelvin:
            raise ValueError(
                f"sensor upper threshold ({self.sensor_upper_kelvin} K) must be "
                f"above the lower threshold ({self.sensor_lower_kelvin} K)"
            )
        if self.ethernet_bandwidth_bps <= 0:
            raise ValueError("Ethernet bandwidth must be positive")
        if self.monitored_components is not None:
            self.monitored_components = tuple(self.monitored_components)
            if not self.monitored_components:
                raise ValueError(
                    "monitored_components must name at least one component "
                    "(pass None to monitor every active component); an "
                    "empty sensor set would leave the closed loop blind"
                )
        self.die_resolution = tuple(self.die_resolution)
        self.spreader_resolution = tuple(self.spreader_resolution)
        for label, resolution in (
            ("die_resolution", self.die_resolution),
            ("spreader_resolution", self.spreader_resolution),
        ):
            if len(resolution) != 2 or any(
                not isinstance(n, int) or n < 1 for n in resolution
            ):
                raise ValueError(
                    f"{label} must be two positive cell counts, got {resolution}"
                )

    def _check_types(self):
        """Refuse a knob of the wrong type with a ``ValueError`` (a
        scenario file's ``"virtual_hz": "fast"``), before any check
        compares it."""
        for knobs, kind, what in _NUMBER_KNOBS:
            for knob in knobs:
                value = getattr(self, knob)
                if value is None and knob == "initial_temperature_kelvin":
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(
                        f"config {knob} must be {what}, got {value!r}"
                    )
        if not isinstance(self.grid_mode, str):
            raise ValueError(
                f"config grid_mode must be a string, got {self.grid_mode!r}"
            )
        for knob in ("monitored_components", "die_resolution",
                     "spreader_resolution"):
            value = getattr(self, knob)
            if value is None and knob == "monitored_components":
                continue
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config {knob} must be a list, got {value!r}")
        if self.monitored_components is not None and not all(
            isinstance(name, str) for name in self.monitored_components
        ):
            raise ValueError(
                f"config monitored_components must name components, got "
                f"{self.monitored_components!r}"
            )

    def to_dict(self):
        """JSON-compatible dict; ``from_dict`` round-trips it losslessly."""
        monitored = self.monitored_components
        return {
            "sampling_period_s": self.sampling_period_s,
            "virtual_hz": self.virtual_hz,
            "physical_hz": self.physical_hz,
            "sensor_upper_kelvin": self.sensor_upper_kelvin,
            "sensor_lower_kelvin": self.sensor_lower_kelvin,
            "monitored_components": (
                None if monitored is None else list(monitored)
            ),
            "grid_mode": self.grid_mode,
            "refine_critical": self.refine_critical,
            "die_resolution": list(self.die_resolution),
            "spreader_resolution": list(self.spreader_resolution),
            "ethernet_bandwidth_bps": self.ethernet_bandwidth_bps,
            "bram_capacity_bytes": self.bram_capacity_bytes,
            "initial_temperature_kelvin": self.initial_temperature_kelvin,
            "solver_backend": json_copy(self.solver_backend),
            "emulation_backend": json_copy(self.emulation_backend),
            "tech_node": json_copy(self.tech_node),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild from a (possibly partial) ``to_dict`` dict; missing keys
        keep their defaults, lists re-become tuples in ``__post_init__``.

        A ``trace_stride`` key is dropped: configs written while the
        trace could be decimated carry it, and it never shaped a run.
        """
        data = dict(data)
        data.pop("trace_stride", None)
        check_keys(data, cls.__dataclass_fields__, "config")
        return cls(**data)


@dataclass
class RunReport:
    """Summary of one co-emulation run."""

    emulated_seconds: float
    fpga_real_seconds: float
    windows: int
    workload_done: bool
    peak_temperature_k: float
    final_temperature_k: float
    freeze_breakdown: dict
    frequency_transitions: int
    dispatcher: dict
    instructions: float = 0.0
    stalled: bool = False  # ended in a zero-progress streak with work left
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        """JSON-compatible dict, serializable next to the Scenario spec;
        equal to ``dataclasses.asdict(self)``, copied field by field
        (the dicts with ``json_copy``; the other fields are scalars)."""
        return {
            "emulated_seconds": self.emulated_seconds,
            "fpga_real_seconds": self.fpga_real_seconds,
            "windows": self.windows,
            "workload_done": self.workload_done,
            "peak_temperature_k": self.peak_temperature_k,
            "final_temperature_k": self.final_temperature_k,
            "freeze_breakdown": json_copy(self.freeze_breakdown),
            "frequency_transitions": self.frequency_transitions,
            "dispatcher": json_copy(self.dispatcher),
            "instructions": self.instructions,
            "stalled": self.stalled,
            "extras": json_copy(self.extras),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def summary(self):
        """A short human-readable account of the run."""
        from repro.util.records import format_duration

        status = "done" if self.workload_done else "unfinished"
        if self.stalled:
            status += ", STALLED"

        def kelvin(value):
            # Zero-window runs carry NaN temperatures (no sample ever
            # reached the trace) — render them honestly, not as 0.0 K.
            return "n/a" if value != value else f"{value:.1f} K"

        lines = [
            f"emulated {format_duration(self.emulated_seconds)} "
            f"({self.windows} windows, workload {status}) in "
            f"{format_duration(self.fpga_real_seconds)} of board time",
            f"  peak {kelvin(self.peak_temperature_k)} | "
            f"final {kelvin(self.final_temperature_k)} | "
            f"{self.frequency_transitions} DFS transitions",
        ]
        if self.instructions:
            lines.append(f"  instructions {self.instructions:.3g}")
        if "replay" in self.extras:
            replay = self.extras["replay"]
            lines.append(
                f"  replayed from trace "
                f"{str(replay.get('scenario_digest', '?'))[:12]} "
                f"({replay.get('recorded_windows', '?')} recorded windows)"
            )
        if self.freeze_breakdown:
            frozen = ", ".join(
                f"{reason} {seconds:.3g} s"
                for reason, seconds in sorted(self.freeze_breakdown.items())
            )
            lines.append(f"  clock freezes: {frozen}")
        return "\n".join(lines)


def _string_keyed(stats):
    """Recursively stringify dict keys (per-master ids are ints, NoC link
    keys are tuples) so reports stay JSON-serializable."""
    if not isinstance(stats, dict):
        return stats
    out = {}
    for key, value in stats.items():
        if isinstance(key, tuple):
            key = "->".join(str(k) for k in key)
        elif not isinstance(key, str):
            key = str(key)
        out[key] = _string_keyed(value)
    return out


class ThermalSide:
    """The SW thermal tool of Figure 5: what the window driver steps.

    Owns one run's RC network, solver, sensor bank, trace and phase
    ``timing``.  Subclasses supply the per-window power stream, and
    :class:`WindowGroup` steps them, one run or a co-stepped group:
    an emulated platform (:class:`EmulationFramework`) has a
    ``power_model`` and supplies each window's utilizations
    (``_window_emulate``) and its statistics stream
    (``_window_dispatch``); a recorded archive
    (:class:`repro.trace.replay.ReplaySource`) has none and supplies
    recorded watts (``_window_recorded``).  After the solve,
    ``_window_commit`` feeds the readout to :meth:`sense` and counts it
    with :meth:`commit`.  :meth:`run`, :meth:`bounds_reached` and
    :meth:`report` read what a subclass supplies: ``done``,
    ``emulated_seconds``, ``emulation_backend`` (the ``run`` span's
    label) and ``_base_report()``, the emulation-side facts of the
    report.
    """

    #: Converts a source's utilizations to watts; a recorded source
    #: supplies watts and has none.
    power_model = None

    def __init__(self, floorplan, config, properties=None):
        # Structure-cached assembly: sweeps over one floorplan + grid
        # configuration share a single grid/RCNetwork build per process.
        self.network = network_for(
            floorplan,
            mode=config.grid_mode,
            refine_critical=config.refine_critical,
            die_resolution=config.die_resolution,
            spreader_resolution=config.spreader_resolution,
            properties=properties,
        )
        self.grid = self.network.grid
        self.solver = ThermalSolver(
            self.network,
            initial_temperature=config.initial_temperature_kelvin,
            backend=config.solver_backend,
        )
        self.sensors = SensorBank(
            _monitored_components(floorplan, config.monitored_components),
            upper_kelvin=config.sensor_upper_kelvin,
            lower_kelvin=config.sensor_lower_kelvin,
        )
        # Readout vector -> sensor order (monitored names are validated
        # against the floorplan, so each has a network column); None when
        # the sensors are the network's components in its own order.
        columns = [self.network.component_names.index(name)
                   for name in self.sensors.names]
        self._sensor_columns = (
            None if columns == list(range(len(self.network.component_names)))
            else np.array(columns, dtype=np.int64)
        )
        self.trace = ThermalTrace(components=self.network.component_names)
        self.windows = 0  # sampling windows completed so far
        # Peak/final kept as windows commit, not read off the trace:
        # commit() lets a numeric window replace a NaN peak, where
        # ThermalTrace.peak_temperature()'s max() keeps a leading NaN.
        self.peak_temp_k = float("nan")
        self.final_temp_k = float("nan")
        # Per-phase wall-time accumulators (seconds), filled by the
        # window driver (see WindowGroup.step).
        self.timing = dict.fromkeys(PHASE_ORDER, 0.0)
        # High-water marks of what report() already pushed into the
        # metrics registry, so repeated reports never double count.
        self._published = {"windows": 0, "timing": {}, "solver": {}}
        self.stall_windows = 0  # consecutive zero-progress windows
        self._stall_bound_hit = False  # a bounds check tripped on stalling
        self._alone = None  # the WindowGroup of step_window()

    def step_window(self):
        """Run exactly one sampling window, as a group of one."""
        group = self._alone
        if group is None:
            group = self._alone = WindowGroup((self,))
        return group.step()[0]

    def sense(self, now, temps, coolest, hottest):
        """Feed one solved window's component temperatures to the
        sensors; returns the window's events, its sensor transitions.

        ``temps`` is the readout in the network's ``component_names``
        order, ``coolest`` and ``hottest`` its minimum and maximum.
        """
        columns = self._sensor_columns
        transitions = self.sensors.update(
            temps if columns is None else temps[columns], now, hottest,
            coolest,
        )
        return tuple(sorted(transitions.items())) if transitions else ()

    def commit(self, now, frequency, total_power_w, temps, hottest, events):
        """Count one sensed window into the trace, peak and final;
        returns its :class:`~repro.core.stats.WindowRow`.
        ``total_power_w`` is the window's summed power."""
        self.trace.add(now, frequency, total_power_w, hottest, temps, events)
        if not (self.peak_temp_k >= hottest):  # NaN-aware max
            self.peak_temp_k = hottest
        self.final_temp_k = hottest
        self.windows += 1
        return WindowRow(now, frequency, total_power_w, hottest, temps, events)

    # -- the run contract ------------------------------------------------------
    def bounds_reached(
        self, max_emulated_seconds=None, max_windows=None, max_stall_windows=None
    ):
        """True when the source is done or a run bound has been hit."""
        if self.done:
            return True
        if (
            max_emulated_seconds is not None
            and self.emulated_seconds >= max_emulated_seconds - 1e-12
        ):
            return True
        if max_stall_windows is not None and self.stall_windows >= max_stall_windows:
            self._stall_bound_hit = True
            return True
        return max_windows is not None and self.windows >= max_windows

    def run(self, max_emulated_seconds=None, max_windows=None,
            max_stall_windows=None):
        """Run until the source is done (or a bound is hit); returns
        :meth:`report`.

        ``max_stall_windows`` bounds *consecutive zero-progress windows*:
        a run whose virtual clock is gated (or rounds to zero cycles per
        window) under a never-cooling policy stops after that many stalled
        windows instead of spinning forever, and the returned report
        carries ``stalled=True``.
        """
        bounds = [(max_emulated_seconds, max_windows, max_stall_windows)]
        tracer = obs_tracing.ACTIVE
        if tracer is None:
            run_windows([self], bounds)
        else:
            backend = self.emulation_backend or "custom"
            with tracer.span("run", backend=backend) as span:
                run_windows([self], bounds)
                span.set(windows=self.windows, emulated_s=self.emulated_seconds)
        return self.report()

    def _publish_metrics(self):
        """Push run/solver counters into the default metrics registry.

        Publishes the *delta* since the last publish, so repeated
        ``report()`` calls on a long-lived run never double count.
        Runs at report time, not per window: the hot loop stays
        metrics-free."""
        published = self._published
        delta_windows = self.windows - published["windows"]
        if delta_windows > 0:
            obs_catalog.counter("repro_run_windows_total").inc(delta_windows)
        published["windows"] = self.windows
        phase_seconds = obs_catalog.counter(
            "repro_run_phase_seconds_total", labels=("phase",)
        )
        for phase, wall in self.timing.items():
            delta = wall - published["timing"].get(phase, 0.0)
            if delta > 0:
                phase_seconds.labels(phase=phase).inc(delta)
            published["timing"][phase] = wall
        stats = self.solver.backend.stats()
        backend = self.solver.backend.name or "custom"
        factorizations = stats.get("factorizations", 0)
        solves = stats.get("solves", 0)
        for metric, key, value in (
            ("repro_solver_factorizations_total", "factorizations",
             factorizations),
            ("repro_solver_solves_total", "solves", solves),
            ("repro_solver_reuses_total", "reuses",
             max(0, solves - factorizations)),
        ):
            delta = value - published["solver"].get(key, 0)
            if delta > 0:
                obs_catalog.counter(metric, labels=("backend",)).labels(
                    backend=backend
                ).inc(delta)
            published["solver"][key] = value

    def report(self):
        """The run's :class:`RunReport`: the source's ``_base_report()``
        with this side's own windows, peak/final temperatures, cell
        count and phase ``timing``; publishes the run metrics."""
        self._publish_metrics()
        base = self._base_report()
        return replace(
            base,
            windows=self.windows,
            peak_temperature_k=self.peak_temp_k,
            final_temperature_k=self.final_temp_k,
            extras=dict(
                base.extras,
                thermal_cells=self.network.num_cells,
                timing=dict(self.timing),
            ),
        )


def _monitored_components(floorplan, monitored):
    """The sensor set of a run, validated against the floorplan at launch
    (every active component when ``monitored`` is None)."""
    active_names = {c.name for c in floorplan.active_components()}
    if monitored is None:
        monitored = [c.name for c in floorplan.active_components()]
    if not monitored:
        # Launch-time twin of the config-time empty-tuple check: a
        # floorplan of pure filler has nothing to monitor and the
        # closed loop (max over component temperatures) needs >= 1.
        raise ValueError(
            f"floorplan {floorplan.name!r} has no active components to "
            f"monitor; the co-emulation loop needs at least one "
            f"temperature-monitored component"
        )
    unknown = sorted(set(monitored) - active_names)
    if unknown:
        raise ValueError(
            f"monitored_components {', '.join(unknown)} not in floorplan "
            f"{floorplan.name!r} (active: {', '.join(sorted(active_names))})"
        )
    return monitored


class EmulationFramework(ThermalSide):
    """One fully wired HW/SW co-emulation instance."""

    def __init__(
        self,
        platform,
        floorplan,
        workload=None,
        policy=None,
        config=None,
        library=None,
        core_hz=None,
    ):
        self.config = config or FrameworkConfig()
        self.platform = platform
        self.floorplan = floorplan
        self.power_model = PowerModel(
            floorplan, library, tech_node=self.config.tech_node
        )
        self.policy = policy or NoManagementPolicy()
        cfg = self.config

        # Heterogeneous designs (mixed static core clocks) feed the
        # power model a per-core frequency map every window; homogeneous
        # ones keep the legacy single-global-clock path bit-for-bit.  A
        # run without a platform (a profiled design) is given the clocks
        # as ``core_hz``, its MPSoCConfig.static_core_frequencies().
        if platform is not None:
            if core_hz is not None:
                raise ValueError("core_hz is for a run without a platform")
            core_hz = platform.config.static_core_frequencies()
        self._hetero_core_hz = (
            core_hz if core_hz and len(set(core_hz.values())) > 1 else None
        )

        self.vpcm = Vpcm(physical_hz=cfg.physical_hz, virtual_hz=cfg.virtual_hz)
        if platform is not None:
            self.vpcm.attach_platform(platform)
            self.sniffer_bank = SnifferBank.from_platform(platform)
        else:
            self.sniffer_bank = SnifferBank()

        self.dispatcher = EthernetDispatcher(
            link=EthernetLink(bandwidth_bps=cfg.ethernet_bandwidth_bps),
            buffer=BramBuffer(capacity_bytes=cfg.bram_capacity_bytes),
        )

        super().__init__(floorplan, cfg)  # the SW thermal tool

        # Which emulation backend drives the platform (None when the
        # caller passed a ready-made workload object).
        self.emulation_backend = None
        if workload is None:
            if platform is None:
                raise ValueError("need a workload when no platform is given")
            backend = make_emulation_backend(cfg.emulation_backend)
            workload = backend.build_workload(platform, self.power_model)
            self.emulation_backend = backend.name
        # A workload that emits a profile's utilizations lays them out
        # in this power model's slot order once, here.
        bind = getattr(workload, "bind", None)
        if bind is not None:
            bind(self.power_model)
        self.workload = workload
        self._level = None  # the ClockLevel of the last window
        # Per-window capture hooks (repro.trace records the dispatcher
        # boundary through these).
        self.captures = []
        # Launch-time policy validation: a policy naming components with
        # no sensor (or needing floorplan defaults) finds out now, not
        # silently mid-run.  getattr keeps duck-typed legacy policies
        # without the bind hook working.
        bind = getattr(self.policy, "bind", None)
        if bind is not None:
            bind(self)

    # -- the closed loop ---------------------------------------------------------
    #: Its own attribute, so a per-window wrapper can patch live runs.
    step_window = ThermalSide.step_window

    def _clocks(self, frequency):
        """The window's DFS level: a :class:`ClockLevel` for the global
        clock ``frequency`` and the policy's per-core overrides, built
        again only when either changes."""
        overrides = self.policy.core_frequencies()
        key = (frequency, tuple(overrides.items()) if overrides else None)
        level = self._level
        if level is not None and level.key == key:
            return level
        core_frequencies = overrides
        if self._hetero_core_hz is not None and self.config.virtual_hz > 0:
            # Mixed core clocks: each core's effective frequency is its
            # static clock scaled by the global DFS ratio; per-core
            # policy overrides win over the platform-derived map.
            scale = frequency / self.config.virtual_hz
            merged = {
                index: hz * scale for index, hz in self._hetero_core_hz.items()
            }
            if overrides:
                merged.update(overrides)
            core_frequencies = merged
        period = self.config.sampling_period_s
        cycles = self.vpcm.window_cycles(period)
        if core_frequencies and frequency > 0:
            # Per-core DFS: throttled cores make proportionally less
            # progress even though the fabric keeps the global clock.
            mean_hz = sum(core_frequencies.values()) / len(core_frequencies)
            cycles = int(cycles * min(1.0, mean_hz / frequency))
        ratio, scale = self.power_model.clock_rows(
            frequency if frequency > 0 else 0.0, core_frequencies
        )
        self._level = level = ClockLevel(
            key, cycles, self.vpcm.window_real_seconds(period),
            core_frequencies, ratio, scale,
        )
        return level

    def _window_emulate(self):
        """Phase 1 of a window: the emulated platform runs one window.

        Returns ``(frequency, utilization vector, clock level)``; the
        :class:`WindowGroup` converts the utilizations to power.
        """
        frequency = self.vpcm.virtual_hz
        level = self._clocks(frequency)
        if level.cycles <= 0 and not self.workload.done:
            # Zero-progress window: the virtual clock is gated (or so low
            # that ``Vpcm.window_cycles`` rounds to zero cycles) while
            # work remains.  Emulated time still advances, so only the
            # consecutive count distinguishes a cooling pause from a
            # never-ending stall.
            self.stall_windows += 1
        else:
            self.stall_windows = 0
            self._stall_bound_hit = False
        return frequency, self.workload.advance(level.cycles), level

    def _window_dispatch(self):
        """Phase 3 of a window: the statistics stream to the host, and
        congestion freezes the clocks.  Nobody reads the records, so
        the sniffers only size the payload; the board seconds are the
        window's level's."""
        freeze = self.dispatcher.dispatch_window(
            self.sniffer_bank.close_window(), self._level.board,
            num_sensors=len(self.sensors.names),
        )
        if freeze > 0:
            self.vpcm.freeze_seconds(freeze, FREEZE_ETHERNET)

    def _window_commit(self, frequency, watts, total_power_w, temps, coolest,
                       hottest):
        """Phase 5 of a window, after the thermal solve: sensors, policy,
        captures, trace."""
        # 5. Temperatures return to the sensors; the policy reacts via VPCM.
        vpcm = self.vpcm
        vpcm.account_window(self.config.sampling_period_s, self._level.board)
        now = vpcm.emulated_seconds
        events = self.sense(now, temps, coolest, hottest)
        self.policy.react(self.sensors, vpcm, now)
        for capture in self.captures:
            capture.on_window(self, watts)
        return self.commit(now, frequency, total_power_w, temps, hottest,
                           events)

    def attach_capture(self, capture):
        """Register a per-window capture hook (``on_window(framework,
        watts)``, ``watts`` the injected power as a vector in
        ``network.component_names`` order), called before the window
        enters ``trace``; returns ``capture`` for chaining."""
        self.captures.append(capture)
        return capture

    @property
    def stalled(self):
        """True when the run tripped its stall bound with work left.

        A workload can stop advancing while emulated time still flows: a
        ``stop_go`` policy gates the clock to 0 Hz, or a DFS operating
        point so low that :meth:`repro.core.vpcm.Vpcm.window_cycles`
        rounds a whole sampling window to zero cycles.  ``workload.done``
        never fires then, so an unbounded :meth:`run` would spin forever
        — the ``max_stall_windows`` bound stops it and this flag records
        the diagnosis.  A run truncated by an ordinary time/window bound
        during a normal clock-gated cooling pause is *not* stalled (the
        raw streak length stays observable as ``stall_windows``); the
        flag clears again if the bound is raised and progress resumes.
        """
        return self._stall_bound_hit and not self.workload.done

    @property
    def done(self):
        return self.workload.done

    @property
    def emulated_seconds(self):
        return self.vpcm.emulated_seconds

    def _base_report(self):
        extras = {"emulation_backend": self.emulation_backend}
        policy_report = getattr(self.policy, "report", None)
        if policy_report is not None:
            extras["policy"] = policy_report()
        if self.platform is not None:
            extras["interconnect"] = _string_keyed(self.platform.interconnect.stats())
            # The platform finish cycle: idle alignment at window
            # boundaries only grows idle_cycles, so active + stall is the
            # same end cycle `EventDrivenEngine.run_to_completion` reports.
            extras["end_cycle"] = max(
                c.active_cycles + c.stall_cycles for c in self.platform.cores
            )
            extras["components"] = sum(1 for _ in self.platform.components())
        return RunReport(
            emulated_seconds=self.vpcm.emulated_seconds,
            fpga_real_seconds=self.vpcm.real_seconds,
            windows=self.windows,
            workload_done=self.workload.done,
            peak_temperature_k=self.peak_temp_k,
            final_temperature_k=self.final_temp_k,
            freeze_breakdown=dict(self.vpcm.freezes),
            frequency_transitions=len(self.vpcm.transitions),
            dispatcher=self.dispatcher.stats(),
            instructions=getattr(self.workload, "instructions", 0.0),
            stalled=self.stalled,
            extras=extras,
        )


# -- the window driver -----------------------------------------------------------
class ClockLevel(NamedTuple):
    """One DFS level of an emulated run: what its windows share until
    the global clock or a per-core override changes."""

    key: tuple  # (global clock, per-core overrides) it was built for
    cycles: int  # the cycles a window makes progress (Vpcm.window_cycles)
    board: float  # a window's board seconds (Vpcm.window_real_seconds)
    core_frequencies: dict | None  # the per-core clock map, if any
    ratio: np.ndarray  # PowerModel.clock_rows
    scale: np.ndarray | None


class WindowGroup:
    """Runs that share one network structure and sampling period,
    stepped one sampling window at a time as one pass over group
    matrices.

    Row ``j`` of ``utilization`` (emulated members x slots), ``ratio``
    and ``scale`` belongs to the ``j``-th emulated member, row ``k`` of
    a window's watts and column ``k`` of its temperatures (cells x
    members, gathered from the members' solvers) to member ``k``.  A
    window is five phases:

    1. *emulate* — each emulated member runs its workload for one
       window, and its utilization vector fills its row;
    2. *power* — one elementwise product converts the block to watts
       (:meth:`~repro.power.models.PowerModel.power`), with each
       member's clock-ratio and V(f)^2 rows rewritten only when its DFS
       level changes (:class:`ClockLevel`);
    3. *dispatch* — each emulated member streams its statistics (the
       sniffers only size the payload), each recorded member supplies
       its recorded watts, and one sparse product injects every member's
       power;
    4. *solve* — one multi-RHS ``step_batch`` on ``backend`` from the
       members' solver temperatures, which then hold the result;
    5. *other* — one sparse product reads every member out, and each
       senses, reacts, captures and commits its own row.

    A steady window reuses the last window's watts and injection: the
    block is converted again only when its bytes differ from the last
    converted block (so ``-0.0`` for ``0.0``, or any NaN, is a change)
    or a member's DFS level changed, and the window's watts block, live
    rows and recorded rows alike, is injected again only when its bytes
    differ from the block injected last.  Reused values are the ones a
    recomputation would give, so every trace stays byte-identical.

    What stays per member is scalar bookkeeping: workload progress, the
    VPCM, the dispatcher, sensor hysteresis, the policy, captures and
    the trace.  A member's phases are an even share of each group
    phase (the emulated members' share, for the first two), so the
    members' phases add up to the window's wall time.  ``step_window()``
    is a group of one, whose ``backend`` is the member's own solver's.
    """

    def __init__(self, runnables, backend=None):
        members = tuple(runnables)
        # Held weakly: a run holds its own group of one, and must still
        # die without the cycle collector.
        self._members = tuple(weakref.ref(member) for member in members)
        if backend is None and len(members) != 1:
            raise ValueError(
                "only a group of one steps without a shared backend"
            )
        self.backend = members[0].solver.backend if backend is None else backend
        self.network = members[0].network
        self.period = members[0].config.sampling_period_s
        self.live = tuple(
            k for k, member in enumerate(members)
            if member.power_model is not None
        )
        self.recorded = tuple(
            k for k, member in enumerate(members) if member.power_model is None
        )
        if self.live:
            models = [members[k].power_model for k in self.live]
            model = self.model = models[0]
            if any(
                other.sources != model.sources
                or not np.array_equal(other._slots, model._slots)
                or not np.array_equal(other._max_power, model._max_power)
                for other in models
            ):
                raise ValueError("co-stepped runs must share one power layout")
            shape = (len(models), len(model.component_names))
            self.utilization = np.zeros((len(models), len(model.sources) + 1))
            self.ratio = np.empty(shape)
            self.scale = (
                np.ones(shape)
                if any(m.tech_node is not None for m in models) else None
            )
            self.levels = [None] * len(models)
        # What a steady window reuses: the utilization bytes its watts
        # were converted from, the live members' watts, and the bytes
        # of the watts block injected last with that injection's
        # right-hand side and row totals.
        self._inputs = self._watts = self._injected = None
        # Each window's starting temperatures, gathered from the solvers.
        self._start = np.empty((self.network.num_cells, len(members)))

    def step(self):
        """Advance every member one sampling window; returns their
        :class:`~repro.core.stats.WindowRow` results."""
        members = [ref() for ref in self._members]
        live, network = self.live, self.network
        frequencies = [0.0] * len(members)
        t0 = perf_counter()
        # 1. The emulated platforms run one window while the sniffers count.
        if live:
            util, levels = self.utilization, self.levels
            for j, k in enumerate(live):
                frequencies[k], util[j], level = members[k]._window_emulate()
                if level is not levels[j]:
                    levels[j] = level
                    self.ratio[j] = level.ratio
                    if level.scale is not None:
                        self.scale[j] = level.scale
                    self._inputs = None
        t1 = perf_counter()
        # 2. Activity -> power (per floorplan component), converted again
        #    only when a utilization's bits or a DFS level changed.
        if live:
            inputs = util.tobytes()
            if inputs != self._inputs:
                self._watts = self.model.power(util, self.ratio, self.scale)
                self._inputs = inputs
        t2 = perf_counter()
        # 3. Statistics stream to the host; congestion freezes the clocks.
        for k in live:
            members[k]._window_dispatch()
        watts = self._watts
        if self.recorded:
            watts = np.empty((len(members), len(network.component_names)))
            if live:
                watts[list(live)] = self._watts
            for k in self.recorded:
                frequencies[k], watts[k] = members[k]._window_recorded()
        injected = watts.tobytes()
        if injected != self._injected:
            self._injected = injected
            self._rhs = network.rhs(network.injection(watts.T))
            self._totals = [sum(row) for row in watts.tolist()]
        t3 = perf_counter()
        # 4. The SW thermal tool integrates one sampling period, from
        #    whatever the members' solvers hold now.
        start = self._start
        for k, member in enumerate(members):
            start[:, k] = member.solver.temperatures
        temperatures = self.backend.step_batch(start, self.period, self._rhs)
        for k, member in enumerate(members):
            solver = member.solver
            solver.temperatures = temperatures[:, k]
            solver.time += self.period
        t4 = perf_counter()
        # 5. Temperatures return to the sensors; each policy reacts.
        means = network.component_temperatures(temperatures).T
        rows = [
            member._window_commit(
                frequency, member_watts, total, temps, min(temp_list),
                max(temp_list),
            )
            for member, frequency, member_watts, total, temps, temp_list
            in zip(members, frequencies, watts, self._totals, means,
                   means.tolist())
        ]
        self._account(members, t0, t1, t2, t3, t4, perf_counter())
        return rows

    def _account(self, members, t0, t1, t2, t3, t4, t5):
        """Share the window's phases out to the members' ``timing`` (and
        ``window.*`` spans, when a tracer is active)."""
        live = self.live
        share = 1.0 / len(members)
        emulate = power = 0.0
        if live:
            emulate = (t1 - t0) / len(live)
            power = (t2 - t1) / len(live)
            dispatch = (t3 - t2) * share
        else:  # nothing emulated or converted
            dispatch = (t3 - t0) * share
        solve = (t4 - t3) * share
        other = (t5 - t4) * share
        for k in live:
            timing = members[k].timing
            timing["emulate"] += emulate
            timing["power"] += power
        for member in members:
            timing = member.timing
            timing["dispatch"] += dispatch
            timing["solve"] += solve
            timing["other"] += other
        tracer = obs_tracing.ACTIVE
        if tracer is not None:
            for k in range(len(members)):
                emulated = k in live
                tracer.emit("window.emulate", emulate if emulated else 0.0)
                tracer.emit("window.power", power if emulated else 0.0)
                tracer.emit("window.dispatch", dispatch)
                tracer.emit("window.solve", solve)
                tracer.emit("window.other", other)


def run_windows(runnables, bounds, co_step=False, completed=None):
    """Step ``runnables`` until each reaches its ``(max_emulated_seconds,
    max_windows, max_stall_windows)`` in ``bounds``.

    A member's position goes into ``completed`` (a set) at the first
    window boundary where it is done, so a caller knows who finished
    even if a later window raises.  Alone, each member steps through its
    own ``step_window`` (the per-window entry point callers may wrap);
    with ``co_step`` the active members form one :class:`WindowGroup`
    on a ``CachedLU`` bound to the first member's network, formed again
    only when a member finishes.
    """
    backend = CachedLU().bind(runnables[0].network) if co_step else None
    completed = set() if completed is None else completed
    active, group = range(len(runnables)), None
    while True:
        completed.update(
            b for b in active if runnables[b].bounds_reached(*bounds[b])
        )
        stepping = [b for b in active if b not in completed]
        if not stepping:
            return
        if backend is None:
            for b in stepping:
                runnables[b].step_window()
        else:
            if group is None or len(stepping) != len(active):
                group = WindowGroup([runnables[b] for b in stepping], backend)
            group.step()
        active = stepping
