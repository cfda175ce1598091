"""The HW/SW co-emulation framework (Sections 4-6, Figure 5).

``EmulationFramework`` owns one emulated platform, its statistics
fabric, the VPCM, the Ethernet dispatcher and the SW thermal tool, and
runs the paper's closed loop: every sampling period (10 ms of emulated
time by default) the window's activity statistics are converted to
power, streamed to the thermal solver, integrated into new cell
temperatures, fed back to the temperature sensors, and acted upon by the
run-time thermal-management policy through the VPCM.
"""

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.dispatcher import BramBuffer, EthernetDispatcher
from repro.core.sniffers import SnifferBank
from repro.core.stats import ThermalTrace, TraceSample
from repro.core.vpcm import FREEZE_ETHERNET, Vpcm
from repro.emulation.backends import make_emulation_backend
from repro.emulation.ethernet import EthernetLink
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.obs.timeline import PHASE_ORDER
from repro.policy.builtin import NoManagementPolicy
from repro.power.models import PowerModel, make_tech_node
from repro.thermal.backends import CachedLU, make_backend
from repro.thermal.rc_network import network_for
from repro.thermal.sensors import SensorBank
from repro.thermal.solver import ThermalSolver
from repro.util.units import MHZ, MS


def check_trace_stride(stride):
    """Reject a ``trace_stride`` that is not a positive integer."""
    if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
        raise ValueError(
            f"trace_stride must be a positive integer (1 keeps every "
            f"sample), got {stride!r}"
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
    trace_stride: int = 1  # keep every k-th ThermalTrace sample
    emulation_backend: str | dict = "event_driven"  # see repro.emulation.backends
    tech_node: str | dict | None = None  # see repro.power.models.TECH_NODES

    def __post_init__(self):
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
        self._validate_solver_backend()
        self._validate_emulation_backend()
        self._validate_tech_node()
        check_trace_stride(self.trace_stride)
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

    def _validate_solver_backend(self):
        """Reject bad backend specs (unknown names, malformed dicts, bad
        params) at config time rather than when the framework is wired.

        Only plain data is accepted — the config must stay JSON-round-
        trippable and each framework built from it must get its *own*
        backend.  Pass a live backend to
        :class:`repro.thermal.solver.ThermalSolver` directly instead.
        Validation delegates to :func:`repro.thermal.backends.make_backend`
        by constructing (and discarding) an instance — construction is
        cheap, and it exercises the exact code path ``build`` will use.
        """
        spec = self.solver_backend
        if not isinstance(spec, (str, dict)):
            raise ValueError(
                f"solver_backend must be a registered name or "
                f"{{'name': ..., 'params': ...}} dict, "
                f"got {type(spec).__name__}"
            )
        make_backend(spec)

    def _validate_emulation_backend(self):
        """Reject bad emulation-backend specs at config time; same
        contract as :meth:`_validate_solver_backend` (plain data only so
        the config stays JSON-round-trippable; pass a live workload to
        :class:`EmulationFramework` directly instead)."""
        spec = self.emulation_backend
        if not isinstance(spec, (str, dict)):
            raise ValueError(
                f"emulation_backend must be a registered name or "
                f"{{'name': ..., 'params': ...}} dict, "
                f"got {type(spec).__name__}"
            )
        make_emulation_backend(spec)

    def _validate_tech_node(self):
        """Reject bad tech-node specs at config time; plain data only
        (``None``, a :data:`repro.power.models.TECH_NODES` name, or a
        full ``TechNode.to_dict()``) so the config stays
        JSON-round-trippable."""
        spec = self.tech_node
        if spec is not None and not isinstance(spec, (str, dict)):
            raise ValueError(
                f"tech_node must be None, a registered name or a "
                f"TechNode.to_dict() dict, got {type(spec).__name__}"
            )
        make_tech_node(spec)

    def to_dict(self):
        """JSON-compatible dict; ``from_dict`` round-trips it losslessly."""
        out = asdict(self)
        out["die_resolution"] = list(self.die_resolution)
        out["spreader_resolution"] = list(self.spreader_resolution)
        if self.monitored_components is not None:
            out["monitored_components"] = list(self.monitored_components)
        return out

    @classmethod
    def from_dict(cls, data):
        """Rebuild from a (possibly partial) ``to_dict`` dict; missing keys
        keep their defaults, lists re-become tuples in ``__post_init__``."""
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
        """JSON-compatible dict, serializable next to the Scenario spec."""
        return asdict(self)

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
    ``timing``.  Subclasses supply the per-window power stream — an
    emulated platform (:class:`EmulationFramework`) or a recorded archive
    (:class:`repro.trace.replay.ReplaySource`): ``_window_power`` injects
    one window's power into ``network``, :func:`step_windows` steps
    ``solver`` one sampling period, and ``_window_commit`` reads the
    result out through :meth:`sense` and counts it with :meth:`commit`.
    """

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
        self.trace = ThermalTrace()
        self.trace_stride = config.trace_stride
        self.windows = 0  # sampling windows completed so far
        # Peak/final run independently of the (possibly decimated) trace,
        # so trace_stride never changes the reported temperatures.
        self.peak_temp_k = float("nan")
        self.final_temp_k = float("nan")
        # Per-phase wall-time accumulators (seconds), filled by
        # _window_power and by the window driver (see step_windows).
        self.timing = dict.fromkeys(PHASE_ORDER, 0.0)

    def sense(self, watts, frequency, now):
        """Read the solved window out to the sensors; returns its sample.

        ``watts`` is the window's power vector in the network's
        ``component_names`` order; the sample's ``component_temps`` is
        the one per-window dict, kept for the trace and its readers.
        """
        means = self.solver.component_temperatures()
        columns = self._sensor_columns
        transitions = self.sensors.update(
            means if columns is None else means[columns], now
        )
        temps = means.tolist()
        return TraceSample(
            time_s=now,
            frequency_hz=frequency,
            total_power_w=sum(watts.tolist()),
            max_temp_k=max(temps),
            component_temps=dict(zip(self.network.component_names, temps)),
            events=tuple(sorted(transitions.items())),
        )

    def commit(self, sample):
        """Count one sensed window into the trace, peak and final."""
        if not (self.windows % self.trace_stride):
            self.trace.append(sample)
        if not (self.peak_temp_k >= sample.max_temp_k):  # NaN-aware max
            self.peak_temp_k = sample.max_temp_k
        self.final_temp_k = sample.max_temp_k
        self.windows += 1
        return sample


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
    ):
        self.config = config or FrameworkConfig()
        self.platform = platform
        self.floorplan = floorplan
        self.power_model = PowerModel(
            floorplan, library, tech_node=self.config.tech_node
        )
        self.policy = policy or NoManagementPolicy()
        cfg = self.config

        # Heterogeneous platforms (mixed static core clocks) feed the
        # power model a per-core frequency map every window; homogeneous
        # ones keep the legacy single-global-clock path bit-for-bit.
        self._hetero_core_hz = None
        if platform is not None:
            static_hz = platform.config.static_core_frequencies()
            if len(set(static_hz.values())) > 1:
                self._hetero_core_hz = static_hz

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
        self.workload = workload
        # High-water marks of what report() already pushed into the
        # metrics registry, so repeated reports never double count.
        self._published = {"windows": 0, "timing": {}, "solver": {}}
        self.stall_windows = 0  # consecutive zero-progress windows
        self._stall_bound_hit = False  # a bounds check tripped on stalling
        # Per-window capture hooks (repro.trace records the dispatcher
        # boundary through these) — called for *every* window, before
        # trace_stride decimation.
        self.captures = []
        # Launch-time policy validation: a policy naming components with
        # no sensor (or needing floorplan defaults) finds out now, not
        # silently mid-run.  getattr keeps duck-typed legacy policies
        # without the bind hook working.
        bind = getattr(self.policy, "bind", None)
        if bind is not None:
            bind(self)

    # -- the closed loop ---------------------------------------------------------
    def step_window(self):
        """Run exactly one sampling window of the co-emulation loop."""
        return step_windows((self,))[0]

    def _window_power(self):
        """Phases 1-3 of a window: emulate, convert to power, dispatch.

        Leaves the window's power injected into ``self.network`` and
        returns ``(watts, frequency)`` for :meth:`_window_commit`, the
        watts a vector in ``network.component_names`` order; the thermal
        solve in between belongs to :func:`step_windows`.
        """
        cfg = self.config
        period = cfg.sampling_period_s
        frequency = self.vpcm.virtual_hz
        t0 = time.perf_counter()

        # 1. The emulated platform runs one window while the sniffers count.
        window_cycles = self.vpcm.window_cycles(period)
        core_frequencies = self.policy.core_frequencies()
        if self._hetero_core_hz is not None and cfg.virtual_hz > 0:
            # Mixed core clocks: each core's effective frequency is its
            # static clock scaled by the global DFS ratio; per-core
            # policy overrides win over the platform-derived map.
            scale = frequency / cfg.virtual_hz
            merged = {
                index: hz * scale for index, hz in self._hetero_core_hz.items()
            }
            if core_frequencies:
                merged.update(core_frequencies)
            core_frequencies = merged
        progress_cycles = window_cycles
        if core_frequencies and frequency > 0:
            # Per-core DFS: throttled cores make proportionally less
            # progress even though the fabric keeps the global clock.
            mean_hz = sum(core_frequencies.values()) / len(core_frequencies)
            progress_cycles = int(window_cycles * min(1.0, mean_hz / frequency))
        if progress_cycles <= 0 and not self.workload.done:
            # Zero-progress window: the virtual clock is gated (or so low
            # that ``Vpcm.window_cycles`` rounds to zero cycles) while
            # work remains.  Emulated time still advances, so only the
            # consecutive count distinguishes a cooling pause from a
            # never-ending stall.
            self.stall_windows += 1
        else:
            self.stall_windows = 0
            self._stall_bound_hit = False
        activity = self.workload.advance(progress_cycles)
        t1 = time.perf_counter()
        self.timing["emulate"] += t1 - t0

        # 2. Activity -> power (per floorplan component).
        watts = self.power_model.component_power(
            activity,
            frequency_hz=frequency if frequency > 0 else 0.0,
            core_frequencies=core_frequencies,
        )
        t2 = time.perf_counter()
        self.timing["power"] += t2 - t1

        # 3. Statistics stream to the host; congestion freezes the clocks.
        payload = self.sniffer_bank.window_payload_bytes()
        self.sniffer_bank.collect_window()
        real_window = self.vpcm.window_real_seconds(period)
        freeze = self.dispatcher.dispatch_window(
            payload, real_window, num_sensors=len(self.sensors.names)
        )
        if freeze > 0:
            self.vpcm.freeze_seconds(freeze, FREEZE_ETHERNET)

        self.network.set_power(watts)
        self.timing["dispatch"] += time.perf_counter() - t2
        return watts, frequency

    def _window_commit(self, watts, frequency):
        """Phase 5 of a window, after the thermal solve: sensors, policy,
        trace.  Assumes the solver already integrated one period."""
        # 5. Temperatures return to the sensors; the policy reacts via VPCM.
        self.vpcm.account_window(self.config.sampling_period_s)
        now = self.vpcm.emulated_seconds
        sample = self.sense(watts, frequency, now)
        self.policy.react(self.sensors, self.vpcm, now)
        for capture in self.captures:
            capture.on_window(self, watts, frequency, sample)
        return self.commit(sample)

    def attach_capture(self, capture):
        """Register a per-window capture hook (``on_window(framework,
        watts, frequency, sample)``, ``watts`` the injected power vector
        in ``network.component_names`` order); returns ``capture`` for
        chaining.  Captures see every window, even ones ``trace_stride``
        drops."""
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

    def bounds_reached(
        self, max_emulated_seconds=None, max_windows=None, max_stall_windows=None
    ):
        """True when the workload is done or a run bound has been hit."""
        if self.workload.done:
            return True
        if (
            max_emulated_seconds is not None
            and self.vpcm.emulated_seconds >= max_emulated_seconds - 1e-12
        ):
            return True
        if max_stall_windows is not None and self.stall_windows >= max_stall_windows:
            self._stall_bound_hit = True
            return True
        return max_windows is not None and self.windows >= max_windows

    def run(self, max_emulated_seconds=None, max_windows=None,
            max_stall_windows=None):
        """Run until the workload completes (or a bound is hit).

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
            return self.report()
        with tracer.span(
            "run", backend=self.emulation_backend or "custom"
        ) as span:
            run_windows([self], bounds)
            span.set(
                windows=self.windows,
                emulated_s=self.vpcm.emulated_seconds,
            )
        return self.report()

    def _publish_metrics(self):
        """Push run/solver counters into the default metrics registry.

        Publishes the *delta* since the last publish, so repeated
        ``report()`` calls on a long-lived framework never double
        count.  Runs at report time, not per window: the hot loop
        stays metrics-free."""
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
        self._publish_metrics()
        extras = {
            "thermal_cells": self.network.num_cells,
            "emulation_backend": self.emulation_backend,
            "timing": dict(self.timing),
        }
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
def step_windows(runnables, backend=None):
    """Advance each :class:`ThermalSide` runnable by one sampling window.

    Every member's ``_window_power()`` runs, then the solve — each
    member's own solver, or with ``backend`` (a bound
    :class:`~repro.thermal.backends.CachedLU`) one multi-RHS
    ``step_batch`` over the members' stacked columns — then every
    member's ``_window_commit()``.  Each member's ``timing`` keeps the
    emulate/power/dispatch its ``_window_power`` measured and gains an
    even share of the solve and of the residual (``other``), so the
    members' phases add up to the window's wall time; with a tracer
    active, each member emits its five ``window.*`` spans.  Returns the
    members' trace samples.
    """
    tracer = obs_tracing.ACTIVE
    t_start = time.perf_counter()
    pending = []
    spent = 0.0
    for runnable in runnables:
        timing = runnable.timing
        emulate, power, dispatch = (
            timing["emulate"], timing["power"], timing["dispatch"]
        )
        watts, frequency = runnable._window_power()
        delta = (timing["emulate"] - emulate, timing["power"] - power,
                 timing["dispatch"] - dispatch)
        spent += delta[0] + delta[1] + delta[2]
        pending.append((runnable, watts, frequency, delta))
    # 4. The SW thermal tool integrates one sampling period.
    t0 = time.perf_counter()
    if backend is None:
        for runnable in runnables:
            runnable.solver.step_be(runnable.config.sampling_period_s)
    else:
        dt = runnables[0].config.sampling_period_s
        advanced = backend.step_batch(
            np.stack([r.solver.temperatures for r in runnables], axis=1),
            dt,
            np.stack([r.network.rhs() for r in runnables], axis=1),
        )
        for col, runnable in enumerate(runnables):
            runnable.solver.temperatures = advanced[:, col]
            runnable.solver.time += dt
    d_solve = time.perf_counter() - t0
    samples = [
        runnable._window_commit(watts, frequency)
        for runnable, watts, frequency, _ in pending
    ]
    count = len(pending)
    d_other = max(0.0, time.perf_counter() - t_start - spent - d_solve) / count
    d_solve /= count
    for runnable, _, _, (d_emulate, d_power, d_dispatch) in pending:
        timing = runnable.timing
        timing["solve"] += d_solve
        timing["other"] += d_other
        if tracer is not None:
            tracer.emit("window.emulate", d_emulate)
            tracer.emit("window.power", d_power)
            tracer.emit("window.dispatch", d_dispatch)
            tracer.emit("window.solve", d_solve)
            tracer.emit("window.other", d_other)
    return samples


def run_windows(runnables, bounds, co_step=False, completed=None):
    """Step ``runnables`` until each reaches its ``(max_emulated_seconds,
    max_windows, max_stall_windows)`` in ``bounds``.

    A member's position goes into ``completed`` (a set) at the first
    window boundary where it is done, so a caller knows who finished
    even if a later window raises.  Alone, each member steps through its
    own ``step_window`` (the per-window entry point callers may wrap);
    with ``co_step`` the active members share one ``CachedLU`` bound to
    the first member's network.
    """
    backend = CachedLU().bind(runnables[0].network) if co_step else None
    completed = set() if completed is None else completed
    active = range(len(runnables))
    while True:
        completed.update(
            b for b in active if runnables[b].bounds_reached(*bounds[b])
        )
        active = [b for b in active if b not in completed]
        if not active:
            return
        if backend is None:
            for b in active:
                runnables[b].step_window()
        else:
            step_windows([runnables[b] for b in active], backend)
