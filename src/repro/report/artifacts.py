"""The paper's tables and figures as named, self-checking artifacts.

Each :class:`Artifact` declares one headline result of the paper —
Table 1 (power library), Table 2 (thermal properties), Table 3 (timing),
Figure 3 (RC-model scaling) and Figure 6 (thermal runtime with/without
DFS) — as a set of scenarios from :mod:`repro.scenario` (or a pure
computation for the static tables), an extractor that turns the run
results into flat machine-readable values plus a rendered Markdown body,
and a list of :class:`Check` tolerance assertions against the published
numbers.  The :data:`ARTIFACTS` registry names them; the pipeline in
:mod:`repro.report.pipeline` runs them and writes ``REPRODUCTION.md``.

Scenario-backed artifacts run through the ordinary
:class:`~repro.scenario.runner.Runner`; the Figure 3 cell-count sweep
runs through :meth:`~repro.scenario.runner.Runner.run_batched`, so the
structure-keyed network cache and the multi-RHS solve path are exercised
by the reproduction itself.
"""

import math
import time
from dataclasses import dataclass, field

from repro.emulation.perfmodel import (
    DEFAULT_MPARM_MODEL,
    TABLE3_ROWS,
    EmulatorPerformanceModel,
)
from repro.mpsoc.bus import BusConfig
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.noc import generate_custom
from repro.mpsoc.platform import CoreConfig, MPSoCConfig
from repro.policy.builtin import example_params
from repro.policy.comparison import comparison_scenarios, outcomes_from_results
from repro.power.library import DEFAULT_LIBRARY
from repro.power.models import PowerModel
from repro.report.render import code_block, markdown_table
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario, WorkloadSpec
from repro.scenario.sweep import Variant, sweep
from repro.thermal.calibration import uniform_floorplan
from repro.thermal.floorplan import floorplan_4xarm7, floorplan_4xarm11
from repro.thermal.properties import ThermalProperties, silicon_conductivity
from repro.thermal.rc_network import network_for
from repro.util.records import Table, format_duration
from repro.util.registry import Registry
from repro.util.units import KB, MB, MHZ, MM2, MW, W

ARTIFACTS = Registry("paper artifact")


# -- checks ----------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One tolerance assertion against an extracted metric.

    ``expected`` with ``rel_tol``/``abs_tol`` asserts approximate
    equality (both tolerances zero means "numerically exact": a relative
    band of 1e-9 absorbs float noise); ``low``/``high`` assert bounds.
    """

    metric: str
    expected: float | None = None
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    low: float | None = None
    high: float | None = None
    note: str = ""

    @property
    def expectation(self):
        """Human-readable form of what the check demands."""
        parts = []
        if self.expected is not None:
            if self.rel_tol:
                parts.append(f"= {self.expected:g} ±{self.rel_tol:.0%}")
            elif self.abs_tol:
                parts.append(f"= {self.expected:g} ±{self.abs_tol:g}")
            else:
                parts.append(f"= {self.expected:g}")
        if self.low is not None and self.high is not None:
            parts.append(f"in [{self.low:g}, {self.high:g}]")
        elif self.low is not None:
            parts.append(f">= {self.low:g}")
        elif self.high is not None:
            parts.append(f"<= {self.high:g}")
        return " and ".join(parts) or "(recorded)"

    def evaluate(self, values):
        if self.metric not in values:
            return CheckResult(
                metric=self.metric,
                value=None,
                passed=False,
                expectation=self.expectation,
                note="metric missing from extracted values",
            )
        value = values[self.metric]
        passed = True
        if self.expected is not None:
            tolerance = max(
                self.abs_tol,
                (self.rel_tol or 1e-9) * abs(self.expected),
            )
            passed = abs(value - self.expected) <= tolerance
        if self.low is not None:
            passed = passed and value >= self.low
        if self.high is not None:
            passed = passed and value <= self.high
        return CheckResult(
            metric=self.metric,
            value=value,
            passed=passed,
            expectation=self.expectation,
            note=self.note,
        )


@dataclass
class CheckResult:
    """Outcome of one :class:`Check` against the extracted values."""

    metric: str
    value: float | None
    passed: bool
    expectation: str
    note: str = ""

    def formatted_value(self):
        return "(missing)" if self.value is None else f"{self.value:g}"

    def to_dict(self):
        return {
            "metric": self.metric,
            "value": self.value,
            "passed": self.passed,
            "expectation": self.expectation,
            "note": self.note,
        }


# -- artifacts -------------------------------------------------------------------


@dataclass
class ArtifactResult:
    """One artifact's reproduction outcome: values, body, check ledger."""

    name: str
    title: str
    paper_ref: str
    description: str
    values: dict = field(default_factory=dict)
    body: str = ""
    checks: list = field(default_factory=list)
    wall_seconds: float = 0.0
    error: str | None = None

    @property
    def ok(self):
        return self.error is None and all(c.passed for c in self.checks)

    @property
    def checks_passed(self):
        return sum(1 for c in self.checks if c.passed)

    # repro: allow[serialization-roundtrip] — body/description are regenerated prose, deliberately kept out of the golden-file JSON
    def to_dict(self):
        return {
            "name": self.name,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "ok": self.ok,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "values": dict(self.values),
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass
class Artifact:
    """A named paper table/figure: scenarios + extractor + checks.

    ``extract(results)`` receives the scenario results (empty for purely
    computed artifacts) and returns ``(values, body)`` — a flat dict of
    numeric metrics and the rendered Markdown body.  ``batched=True``
    routes the scenarios through :meth:`Runner.run_batched`, so
    structure-sharing variants co-step through one multi-RHS solve.
    ``use_trace_store=True`` gives the runner an in-memory
    :class:`repro.trace.store.TraceStore`, so sweep members that differ
    only in thermal-side knobs replay one member's recorded boundary
    stream instead of re-emulating (record once, fan out).
    """

    name: str
    title: str
    paper_ref: str
    description: str
    extract: callable
    scenarios: tuple = ()
    batched: bool = False
    capture_trace: bool = False
    use_trace_store: bool = False
    checks: tuple = ()

    def run(self):
        """Execute scenarios, extract values, evaluate checks."""
        start = time.perf_counter()
        values, body, check_results, error = {}, "", [], None
        try:
            results = []
            if self.scenarios:
                runner = Runner(
                    capture_trace=self.capture_trace,
                    trace_store=True if self.use_trace_store else None,
                )
                run = runner.run_batched if self.batched else runner.run
                results = run(list(self.scenarios))
                failed = [r for r in results if not r.ok]
                if failed:
                    raise RuntimeError(
                        f"scenario {failed[0].name!r} failed: {failed[0].error}"
                    )
            values, body = self.extract(results)
            check_results = [check.evaluate(values) for check in self.checks]
        except Exception as exc:  # the report survives one broken artifact
            error = f"{type(exc).__name__}: {exc}"
        return ArtifactResult(
            name=self.name,
            title=self.title,
            paper_ref=self.paper_ref,
            description=self.description,
            values=values,
            body=body,
            checks=check_results,
            wall_seconds=time.perf_counter() - start,
            error=error,
        )


# -- Table 1: the power library --------------------------------------------------

#: (library key, paper's max power W, paper's density W/mm2) — Table 1 as printed.
PAPER_POWER_ROWS = [
    ("arm7", 5.5e-3, 0.03),
    ("arm11", 1.5, 0.5),
    ("dcache_8k_2w", 43e-3, 0.012),
    ("icache_8k_dm", 11e-3, 0.03),
    ("sram_32k", 15e-3, 0.02),
]


def _table1_extract(results):
    values = {}
    table = Table(
        ["Component", "Max power", "Max power density", "area (mm2)"],
        title="Table 1: power for most important components of an MPSoC "
        "design (130nm bulk CMOS)",
    )
    for label, power, density in DEFAULT_LIBRARY.table_rows():
        name = next(
            (k for k in DEFAULT_LIBRARY.names() if DEFAULT_LIBRARY[k].label == label),
            None,
        )
        area = DEFAULT_LIBRARY.area(name) / MM2 if name else float("nan")
        table.add_row(label, power, density, f"{area:.3f}")
    for name, _power, _density in PAPER_POWER_ROWS:
        cls = DEFAULT_LIBRARY[name]
        values[f"{name}_max_power_w"] = cls.max_power
        values[f"{name}_density_w_mm2"] = cls.power_density * MM2
        # Internal consistency: area x density must reproduce max power.
        values[f"{name}_area_consistency"] = (
            cls.area * cls.power_density / cls.max_power
        )
    peaks = Table(
        ["floorplan", "clock", "peak power"],
        title="Peak platform power implied by Table 1 (Figure 4 operating points)",
    )
    peak7 = PowerModel(floorplan_4xarm7()).peak_power(100 * MHZ)
    peak11 = PowerModel(floorplan_4xarm11()).peak_power(500 * MHZ)
    peaks.add_row("4x ARM7 (Fig 4a)", "100 MHz", f"{peak7 / MW:.1f} mW")
    peaks.add_row("4x ARM11 (Fig 4b)", "500 MHz", f"{peak11 / W:.2f} W")
    values["peak_power_4xarm7_w"] = peak7
    values["peak_power_4xarm11_w"] = peak11
    values["peak_power_ratio"] = peak11 / peak7
    body = f"{markdown_table(table)}\n\n{markdown_table(peaks)}"
    return values, body


@ARTIFACTS.register("table1")
def table1_artifact():
    checks = []
    for name, power, density in PAPER_POWER_ROWS:
        checks.append(Check(f"{name}_max_power_w", expected=power))
        checks.append(Check(f"{name}_density_w_mm2", expected=density))
        checks.append(Check(f"{name}_area_consistency", expected=1.0))
    checks.append(
        Check(
            "peak_power_4xarm11_w",
            low=6.0,
            high=12.0,
            note="the thermally interesting Figure 4b design",
        )
    )
    checks.append(Check("peak_power_ratio", low=20.0))
    return Artifact(
        name="table1",
        title="Table 1 — power of the most important MPSoC components",
        paper_ref="Table 1, Section 5.1",
        description="Regenerates the 130 nm technology power library and "
        "checks every published max-power/density pair plus the peak "
        "platform power at both Figure 4 operating points.",
        extract=_table1_extract,
        checks=tuple(checks),
    )


# -- Table 2: thermal properties -------------------------------------------------

_SILICON_RATIO_400_300 = (300.0 / 400.0) ** (4.0 / 3.0)


def _table2_extract(results):
    values = {
        "silicon_k_300": float(silicon_conductivity(300.0)),
        "silicon_k_ratio_400_300": float(
            silicon_conductivity(400.0) / silicon_conductivity(300.0)
        ),
    }
    props = ThermalProperties()
    table = Table(["property", "value"], title="Table 2: thermal properties")
    for name, value in props.table():
        table.add_row(name, value)
    curve = Table(
        ["T (K)", "k_si (W/mK)"],
        title="Non-linear silicon conductivity 150*(300/T)^(4/3)",
    )
    for t in (300, 320, 340, 360, 380, 400):
        curve.add_row(t, f"{silicon_conductivity(float(t)):.1f}")
    # The Section 5.2 fine grid, assembled through the structure-keyed
    # cache the co-emulation loop itself uses.
    net = network_for(
        uniform_floorplan(),
        mode="uniform",
        die_resolution=(18, 18),
        spreader_resolution=(18, 18),
    )
    values["grid_cells_660_class"] = float(net.num_cells)
    values["nonlinear_cells"] = float(net.is_nonlinear.sum())
    inventory = (
        f"660-cell-class grid: {net.num_cells} cells, "
        f"{len(net.edge_i)} resistive edges, "
        f"{int(net.is_nonlinear.sum())} non-linear (silicon) cells"
    )
    replay_note = _table2_replay_validation(values)
    body = (
        f"{markdown_table(table)}\n\n{markdown_table(curve)}\n\n"
        f"{inventory}\n\n{replay_note}"
    )
    return values, body


def _table2_replay_validation(values):
    """Validate the Table 2 material properties through trace replay.

    One MATRIX-TM-class stress run is recorded at the dispatcher
    boundary (repro.trace), then the SW thermal side alone is re-run
    twice from the recording: once with unchanged knobs — which must
    reproduce the live trace digest bit-for-bit — and once with the
    non-linear silicon conductivity frozen at its 300 K value.  The
    frozen-k die must come out measurably cooler (hot silicon conducts
    worse, so the paper's non-linear resistances are self-reinforcing),
    which is the property Table 2's k(T) law exists to capture.
    """
    from repro.scenario.presets import PRESETS
    from repro.thermal.properties import SILICON_VOLUMETRIC_HEAT, Material
    from repro.trace.capture import record
    from repro.trace.replay import replay

    scenario = PRESETS.get("matrix_tm_unmanaged")()
    scenario.name = "table2_replay_probe"
    scenario.max_emulated_seconds = 3.0
    framework, live_report, archive = record(scenario)
    faithful, faithful_report = replay(archive)
    values["replay_digest_match"] = float(
        faithful.trace.digest() == framework.trace.digest()
    )
    frozen_k = ThermalProperties(
        die_material=Material(
            name="silicon-const-k300",
            conductivity=float(silicon_conductivity(300.0)),
            volumetric_heat=SILICON_VOLUMETRIC_HEAT,
        )
    )
    _, frozen_report = replay(archive, properties=frozen_k)
    values["nonlinear_peak_excess_k"] = (
        faithful_report.peak_temperature_k - frozen_report.peak_temperature_k
    )
    return (
        f"Replay validation: a {archive.windows}-window stress recording "
        f"replayed through the thermal side alone reproduces the live "
        f"trace digest exactly "
        f"(match={int(values['replay_digest_match'])}), and freezing the "
        f"silicon conductivity at k(300 K) cools the peak by "
        f"{values['nonlinear_peak_excess_k']:.2f} K — the non-linear "
        f"resistances of Table 2 at work."
    )


@ARTIFACTS.register("table2")
def table2_artifact():
    return Artifact(
        name="table2",
        title="Table 2 — thermal properties of the RC model",
        paper_ref="Table 2, Section 5.2",
        description="Regenerates the property table, validates the "
        "non-linear silicon conductivity law and the 660-cell-class "
        "fine grid it acts on; a recorded stress run replayed through "
        "repro.trace checks the k(T) law's thermal effect end to end.",
        extract=_table2_extract,
        checks=(
            Check("silicon_k_300", expected=150.0),
            Check("silicon_k_ratio_400_300", expected=_SILICON_RATIO_400_300),
            Check(
                "grid_cells_660_class",
                expected=648.0,
                note="the 18x18x2 uniform grid of Section 5.2",
            ),
            Check("nonlinear_cells", low=1.0),
            Check(
                "replay_digest_match",
                expected=1.0,
                note="record -> replay reproduces the live trace "
                "digest bit-for-bit",
            ),
            Check(
                "nonlinear_peak_excess_k",
                low=0.02,
                note="freezing k at 300 K must cool the die: hot "
                "silicon conducts worse",
            ),
        ),
    )


# -- Table 3: timing comparison --------------------------------------------------


def _table3_platform(num_cores, interconnect="bus", noc=None, private_kb=16,
                     cache_bytes=4 * KB, shared_bytes=1 * MB):
    """The paper's Table 3 configuration: 4 KB I/D caches, 16 KB private
    memory, 1 MB shared main memory, OPB bus (or the given NoC)."""
    return MPSoCConfig(
        name=f"mx{num_cores}",
        cores=[CoreConfig(f"cpu{i}") for i in range(num_cores)],
        icache=CacheConfig(name="i", size=cache_bytes, line_size=16),
        dcache=CacheConfig(name="d", size=cache_bytes, line_size=16),
        private_mem_size=private_kb * KB,
        shared_mem_size=shared_bytes,
        interconnect=interconnect,
        bus=BusConfig(name="opb", kind="opb") if interconnect == "bus" else None,
        noc=noc,
    )


def _table3_scenarios():
    """One scenario per published row, on the declarative API."""
    dithering = WorkloadSpec(
        "dithering", {"width": 32, "height": 32, "num_images": 2}
    )
    rows = [
        ("matrix_1core", _table3_platform(1), WorkloadSpec("matrix", {"n": 8})),
        ("matrix_4core", _table3_platform(4), WorkloadSpec("matrix", {"n": 8})),
        ("matrix_8core", _table3_platform(8), WorkloadSpec("matrix", {"n": 8})),
        ("dithering_bus", _table3_platform(4), dithering),
        (
            "dithering_noc",
            _table3_platform(
                4,
                interconnect="noc",
                noc=generate_custom("noc2", 2, ring=False, buffer_flits=3),
            ),
            dithering,
        ),
        (
            "matrix_tm_noc",
            _table3_platform(
                4,
                interconnect="noc",
                noc=generate_custom(
                    "noc4", 4, extra_links=[(0, 2), (1, 3)], buffer_flits=3
                ),
                private_kb=32,
                cache_bytes=8 * KB,
                shared_bytes=32 * KB,
            ),
            WorkloadSpec("matrix", {"n": 8}),
        ),
    ]
    scenarios = []
    for name, platform, workload in rows:
        scenarios.append(
            Scenario(
                name=f"table3_{name}",
                platform=platform,
                floorplan="4xarm7",
                workload=workload,
                config={"spreader_resolution": [2, 2]},
            )
        )
    # Companion: the 4-core MATRIX row again through the fast windowed
    # emulation backend — the reproduction itself checks the fast path
    # agrees with the event-driven reference it was calibrated against.
    scenarios.append(
        Scenario(
            name="table3_matrix_4core_windowed",
            platform=_table3_platform(4),
            floorplan="4xarm7",
            workload=WorkloadSpec("matrix", {"n": 8}),
            config={
                "spreader_resolution": [2, 2],
                "emulation_backend": "windowed",
            },
        )
    )
    return tuple(scenarios)


def _table3_extract(results):
    emulator = EmulatorPerformanceModel()
    mparm = DEFAULT_MPARM_MODEL
    table = Table(
        [
            "configuration",
            "cycles (ours)",
            "MPARM (paper)",
            "HW emu (paper)",
            "speedup (paper)",
            "MPARM (model)",
            "HW emu (model)",
            "speedup (model)",
        ],
        title="Table 3: timing comparison, MPARM vs the HW/SW emulation "
        "framework (our workloads are smaller than the paper's, so "
        "absolute wall-clocks differ; the shape is the claim)",
    )
    values = {}
    emulator_walls = []
    for index, (result, row) in enumerate(zip(results, TABLE3_ROWS)):
        name, cores, _comps, switches, io_bound, thermal, mparm_s, emu_s, speedup = row
        extras = result.report.extras
        cycles = float(extras["end_cycle"])
        if thermal:
            # MATRIX-TM: the measured kernel repeats for a 100K-matrix
            # workload (25K platform iterations of 4 parallel matrices).
            cycles *= 25_000
        components = extras["components"]
        model_mparm = mparm.wall_seconds(
            cycles, cores, components, switches, io_bound, thermal
        )
        model_emu = emulator.wall_seconds(cycles)
        model_speedup = model_mparm / model_emu
        if not thermal:
            emulator_walls.append(model_emu)
        values[f"speedup_model_row{index}"] = model_speedup
        table.add_row(
            name,
            f"{cycles:.3g}",
            format_duration(mparm_s),
            format_duration(emu_s),
            f"{speedup}x",
            format_duration(model_mparm),
            format_duration(model_emu),
            f"{model_speedup:.0f}x",
        )
    matrix_walls = emulator_walls[:3]
    values["emulator_flatness"] = max(matrix_walls) / min(matrix_walls)
    values["thermal_row_speedup"] = values[f"speedup_model_row{len(TABLE3_ROWS) - 1}"]
    # The windowed-backend companion run (scenario 7) against the exact
    # matrix_4core row it mirrors (scenario 2).
    exact = results[1].report
    fast = results[len(TABLE3_ROWS)].report
    values["windowed_end_cycle_ratio"] = float(fast.extras["end_cycle"]) / float(
        exact.extras["end_cycle"]
    )
    values["windowed_peak_delta_k"] = abs(
        fast.peak_temperature_k - exact.peak_temperature_k
    )
    values["windowed_done"] = 1.0 if fast.workload_done else 0.0
    note = (
        "The emulator column is flat in system size (all components are "
        "real parallel hardware); the speedup column grows past three "
        "orders of magnitude on the thermal row — the paper's shape.\n\n"
        "Companion: the 4-core MATRIX row re-run through the `windowed` "
        "emulation backend finishes at "
        f"{values['windowed_end_cycle_ratio']:.4f}x the event-driven end "
        f"cycle with a peak-temperature delta of "
        f"{values['windowed_peak_delta_k']:.3f} K."
    )
    return values, f"{markdown_table(table)}\n\n{note}"


@ARTIFACTS.register("table3")
def table3_artifact():
    checks = [
        Check(
            f"speedup_model_row{index}",
            expected=float(row[8]),
            rel_tol=0.35,
            note=row[0],
        )
        for index, row in enumerate(TABLE3_ROWS)
    ]
    checks.append(
        Check(
            "emulator_flatness",
            high=1.20,
            note="the paper's constant 1.2 s emulator column",
        )
    )
    checks.append(Check("thermal_row_speedup", low=1000.0))
    checks.append(
        Check(
            "windowed_end_cycle_ratio",
            expected=1.0,
            rel_tol=0.02,
            note="fast windowed backend vs event-driven, matrix_4core",
        )
    )
    checks.append(
        Check(
            "windowed_peak_delta_k",
            high=0.5,
            note="peak-temperature agreement of the windowed backend",
        )
    )
    checks.append(Check("windowed_done", expected=1.0))
    return Artifact(
        name="table3",
        title="Table 3 — timing: HW/SW emulation framework vs MPARM",
        paper_ref="Table 3, Section 7",
        description="Runs every published row's platform + workload "
        "cycle-accurately through the scenario API, converts cycles to "
        "wall-clock with the calibrated emulator/MPARM models, and "
        "checks the published speedup shape.",
        extract=_table3_extract,
        scenarios=_table3_scenarios(),
        checks=tuple(checks),
    )


# -- Figure 3: RC-model scaling (batched sweep) ---------------------------------


def _fig3_scenarios(resolutions, max_windows):
    base = PRESETS.get("matrix_tm_unmanaged")()
    base.name = "fig3"
    base.max_emulated_seconds = None
    base.max_windows = max_windows
    configs = []
    for nx, ny in resolutions:
        config = base.config.to_dict()
        config.update(
            grid_mode="uniform",
            die_resolution=[nx, ny],
            spreader_resolution=[nx, ny],
        )
        configs.append(Variant(f"{nx}x{ny}", config))
    policies = [
        Variant("noTM", {"name": "none", "params": {}}),
        Variant(
            "DFS",
            {
                "name": "dual_threshold",
                "params": {"high_hz": 500 * MHZ, "low_hz": 100 * MHZ},
            },
        ),
    ]
    return tuple(sweep(base, {"config": configs, "policy": policies}))


def _fig3_extract(results):
    # Group the batched results by shared structure (cell count): both
    # policy variants of one resolution co-stepped through one CachedLU.
    groups = {}
    for result in results:
        cells = int(result.report.extras["thermal_cells"])
        groups.setdefault(cells, []).append(result)
    table = Table(
        ["cells", "scenarios", "replayed", "windows each", "group wall (s)",
         "scenario-windows/s", "us/cell/window", "real-time factor"],
        title="Figure 3 / Section 5.2: RC-model scaling, co-stepped "
        "through one multi-RHS backward-Euler solve per window "
        "(Runner.run_batched); unmanaged variants replay one recorded "
        "power trace instead of re-emulating (repro.trace)",
    )
    values = {}
    points = []
    replayed_total = 0
    for cells in sorted(groups):
        members = groups[cells]
        # Live and replayed members of one resolution run in separate
        # co-step groups; members of one co-step group share one exact
        # wall float, so summing the distinct values gives the
        # resolution's total wall time.
        wall = sum({m.wall_seconds for m in members})
        windows = members[0].report.windows
        replayed = sum(1 for m in members if m.replayed)
        replayed_total += replayed
        scenario_windows = len(members) * windows
        rate = scenario_windows / wall if wall > 0 else float("inf")
        per_cell = wall / scenario_windows / cells * 1e6
        emulated = members[0].report.emulated_seconds
        realtime = len(members) * emulated / wall if wall > 0 else float("inf")
        points.append((cells, wall / scenario_windows))
        table.add_row(
            cells,
            len(members),
            replayed,
            windows,
            f"{wall:.3f}",
            f"{rate:,.0f}",
            f"{per_cell:.2f}",
            f"{realtime:.1f}x",
        )
        values[f"realtime_factor_{cells}"] = realtime
    cells_small, cost_small = points[0]
    cells_large, cost_large = points[-1]
    values["cells_max"] = float(cells_large)
    values["structures"] = float(len(groups))
    values["scenarios"] = float(len(results))
    values["replayed_scenarios"] = float(replayed_total)
    values["scaling_exponent"] = math.log(cost_large / cost_small) / math.log(
        cells_large / cells_small
    )
    values["realtime_factor_finest"] = values[f"realtime_factor_{cells_large}"]
    note = (
        "Each cell interacts only with its neighbours, so per-step cost "
        "must grow roughly linearly in the cell count (the paper: 2 s of "
        "simulation on a 660-cell floorplan in 1.65 s on a 3 GHz "
        "Pentium 4).  Both policy variants of each resolution share one "
        "factorization stream, and the unmanaged (open-loop) variants "
        "beyond the first replay its recorded dispatcher-boundary power "
        "stream — the thermal side re-solves, the platform never re-runs."
    )
    return values, f"{markdown_table(table)}\n\n{note}"


@ARTIFACTS.register("fig3")
def fig3_artifact(resolutions=((6, 6), (12, 12), (18, 18)), max_windows=100):
    num = 2 * len(resolutions)
    return Artifact(
        name="fig3",
        title="Figure 3 — RC model: linear-complexity scaling",
        paper_ref="Figure 3, Section 5.2",
        description="Sweeps the uniform-grid resolution up to the "
        "paper's 660-cell class and co-steps the variants through "
        "Runner.run_batched with a trace store: the unmanaged variants "
        "replay one recorded power trace across every resolution; "
        "checks linear-complexity scaling and the real-time "
        "co-emulation requirement.",
        extract=_fig3_extract,
        scenarios=_fig3_scenarios(resolutions, max_windows),
        batched=True,
        use_trace_store=True,
        checks=(
            Check("cells_max", expected=float(
                2 * resolutions[-1][0] * resolutions[-1][1]
            )),
            Check("structures", expected=float(len(resolutions))),
            Check("scenarios", expected=float(num)),
            Check(
                "replayed_scenarios",
                expected=float(len(resolutions) - 1),
                note="every open-loop resolution after the first replays "
                "the first one's recorded boundary stream",
            ),
            Check(
                "scaling_exponent",
                high=1.5,
                note="sparse direct solves carry a small superlinear term",
            ),
            Check(
                "realtime_factor_finest",
                low=1.0,
                note="one window's solve must fit inside the 10 ms window",
            ),
        ),
    )


# The Section 7 sensor thresholds, shared by the Figure 6 artifact and
# the policy comparison.
UPPER_K = 350.0
LOWER_K = 340.0


# -- Policy comparison: the Figure 6 family as design-space exploration ---------

#: The registry policies the comparison races (with their example params
#: for the 4xarm11 experiment floorplan): the paper's four plus the
#: exploration family.  ``none`` anchors the throughput-loss column.
COMPARED_POLICIES = (
    "none",
    "dual_threshold",
    "stop_go",
    "per_core",
    "dvfs_ladder",
    "pid",
    "predictive",
    "per_domain",
)


def _policy_comparison_scenarios():
    base = PRESETS.get("matrix_tm_unmanaged")()
    base.name = "policy_comparison"
    policies = [
        {"name": name, "params": example_params(name)}
        for name in COMPARED_POLICIES
    ]
    _, scenarios = comparison_scenarios(base, policies)
    return tuple(scenarios)


def _policy_stats_cell(stats):
    """Compact ``k=v`` rendering of the scalar per-policy statistics."""
    parts = []
    for key, value in stats.items():
        if key == "name" or isinstance(value, (dict, list)):
            continue
        parts.append(f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}")
    return ", ".join(parts) or "—"


def _policy_comparison_extract(results):
    comparison = outcomes_from_results(
        results, threshold_kelvin=UPPER_K, base="policy_comparison"
    )
    if comparison.errors:
        name, error = next(iter(comparison.errors.items()))
        raise RuntimeError(f"policy {name!r} failed: {error}")
    table = Table(
        ["policy", "peak K", "final K", f"time > {UPPER_K:.0f} K",
         "emulated", "throughput loss", "DFS transitions", "policy stats"],
        title="Closed-loop policy comparison on the MATRIX-TM-class "
        "stress (Figure 6 generalized; all variants co-stepped through "
        "one multi-RHS solve via Runner.run_batched)",
    )
    values = {}
    managed_peaks, losses = [], []
    for outcome in comparison.outcomes:
        table.add_row(
            outcome.policy,
            f"{outcome.peak_temperature_k:.1f}",
            f"{outcome.final_temperature_k:.1f}",
            f"{outcome.time_above_threshold_s:.2f} s",
            format_duration(outcome.emulated_seconds),
            f"{outcome.throughput_loss:.0%}",
            outcome.frequency_transitions,
            _policy_stats_cell(outcome.stats),
        )
        values[f"peak_k_{outcome.policy}"] = outcome.peak_temperature_k
        values[f"time_above_s_{outcome.policy}"] = outcome.time_above_threshold_s
        values[f"throughput_loss_{outcome.policy}"] = outcome.throughput_loss
        if outcome.policy == "none":
            continue
        managed_peaks.append(outcome.peak_temperature_k)
        losses.append(outcome.throughput_loss)
    unmanaged = comparison.outcome("none")
    values["policies_compared"] = float(len(comparison.outcomes))
    values["unmanaged_peak_k"] = unmanaged.peak_temperature_k
    values["managed_peak_max_k"] = max(managed_peaks)
    values["peak_reduction_k"] = unmanaged.peak_temperature_k - max(managed_peaks)
    values["min_managed_throughput_loss"] = min(losses)
    values["all_done"] = float(
        all(o.workload_done for o in comparison.outcomes)
    )
    values["stalled_runs"] = float(
        sum(1 for o in comparison.outcomes if o.stalled)
    )
    note = (
        "Every management policy trades throughput for temperature: the "
        "unmanaged baseline overheats toward steady state while each "
        "managed variant holds the die near the "
        f"{LOWER_K:.0f}–{UPPER_K:.0f} K band and pays for it in emulated "
        "run time — the Figure 6 trade-off, explored across "
        f"{len(comparison.outcomes)} policies in one batched sweep.  "
        "Per-policy statistics come from each policy's report() hook."
    )
    return values, f"{markdown_table(table)}\n\n{note}"


@ARTIFACTS.register("policy_comparison")
def policy_comparison_artifact():
    return Artifact(
        name="policy_comparison",
        title="Policy comparison — thermal management design space",
        paper_ref="Section 7 / Figure 6 (generalized)",
        description="Races every registered thermal-management policy "
        "(the paper's four plus the exploration family) over one "
        "MATRIX-TM-class stress scenario through the batched sweep "
        "pipeline, and checks the closed-loop trade-off the paper "
        "demonstrates for DFS.",
        extract=_policy_comparison_extract,
        scenarios=_policy_comparison_scenarios(),
        batched=True,
        capture_trace=True,
        checks=(
            Check("policies_compared", low=6.0,
                  note="four ported built-ins plus the exploration family"),
            Check("unmanaged_peak_k", low=360.0,
                  note="the baseline sails past the 350 K threshold"),
            Check("managed_peak_max_k", high=358.0,
                  note="every managed policy caps the excursion"),
            Check("peak_reduction_k", low=10.0),
            Check("min_managed_throughput_loss", low=0.05,
                  note="thermal headroom is paid for in throughput"),
            Check("all_done", expected=1.0),
            Check("stalled_runs", expected=0.0),
        ),
    )


# -- Pareto front: heterogeneous design-space exploration -----------------------

#: The reduced DSE space the report sweeps (the full >= 1000-point space
#: is the ``python -m repro dse --check`` CI gate; the report's job is to
#: show the front, not to soak-test the sweep): 2 big x 3 little x 3
#: nodes x 3 operating points x 2 grids = 108 configurations.
DSE_REPORT_SPACE = dict(
    big_counts=(1, 2),
    little_counts=(0, 2, 4),
    tech_nodes=("130nm", "90nm", "65nm"),
    big_hz_steps=tuple(f * MHZ for f in (100, 250, 500)),
    grids=((2, 2), (3, 3)),
)


def _pareto_front_extract(results):
    from repro.dse.driver import run_dse
    from repro.dse.space import generate_points

    points = generate_points(**DSE_REPORT_SPACE)
    report = run_dse(points, refine_top=1)
    values = {
        "evaluated": float(report["evaluated"]),
        "failed": float(report["failed"]),
        "replayed": float(report["replayed"]),
        "front_size": float(report["front_size"]),
        "partition_consistent": float(
            report["front_size"] + report["dominated"] == report["evaluated"]
        ),
    }
    front = sorted(
        report["front"], key=lambda r: r["throughput_ips"], reverse=True
    )
    table = Table(
        ["design", "big", "little", "node", "clock", "peak K", "avg W",
         "Ginstr/s"],
        title="Pareto front of the heterogeneous design space "
        "(minimize peak temperature and power, maximize throughput; "
        f"{report['dominated']} dominated designs pruned)",
    )
    for row in front[:12]:
        table.add_row(
            row["design"],
            row["big"],
            row["little"],
            row["tech_node"],
            f"{row['big_hz'] / MHZ:g} MHz",
            f"{row['peak_temperature_k']:.2f}",
            f"{row['avg_power_w']:.3f}",
            f"{row['throughput_ips'] / 1e9:.3f}",
        )
    if len(front) > 12:
        table.add_row(f"... {len(front) - 12} more front designs",
                      "", "", "", "", "", "", "")
    refinement_lines = []
    for design, comparison in report["policy_refinement"].items():
        for outcome in comparison.get("outcomes", []):
            refinement_lines.append(
                f"  {design} under {outcome['policy']!r}: peak "
                f"{outcome['peak_temperature_k']:.2f} K, throughput loss "
                f"{outcome['throughput_loss']:.0%}"
            )
    note = (
        f"Every configuration ran through one Runner.run_batched call; "
        f"the trace store deduped the {report['replayed']} fine-grid "
        f"twins into replays of their coarse-grid leaders' recorded "
        f"boundary streams (record once, fan out — the Figure 3 pattern "
        f"at DSE scale).  Dynamic power scales as f x V(f)^2 along each "
        f"tech node's operating-point ladder, so a 65 nm design at "
        f"100 MHz and a 130 nm design at 500 MHz bracket the "
        f"temperature-throughput trade-off.\n\n"
        f"Top-throughput front design re-raced against a reactive "
        f"policy:\n" + "\n".join(refinement_lines)
    )
    return values, f"{markdown_table(table)}\n\n{note}"


@ARTIFACTS.register("pareto_front")
def pareto_front_artifact():
    num = 1
    for axis in DSE_REPORT_SPACE.values():
        num *= len(axis)
    return Artifact(
        name="pareto_front",
        title="Pareto front — heterogeneous MPSoC design-space exploration",
        paper_ref="Section 7 (methodology generalized)",
        description="Sweeps a reduced big/little x tech-node x "
        "operating-point x thermal-grid space through the batched "
        "runner with trace-store replay dedup, prunes the designs to "
        "their Pareto front (peak temperature vs average power vs "
        "throughput) and re-races the top design under a reactive "
        "policy; `python -m repro dse --check` runs the full >= 1000-"
        "configuration space as the CI gate.",
        extract=_pareto_front_extract,
        checks=(
            Check("evaluated", expected=float(num)),
            Check("failed", expected=0.0),
            Check(
                "replayed",
                expected=float(num // 2),
                note="every fine-grid twin replays its coarse-grid "
                "leader's recorded boundary stream",
            ),
            Check("front_size", low=1.0,
                  note="a non-empty front: the axes genuinely trade off"),
            Check(
                "partition_consistent",
                expected=1.0,
                note="front + dominated partitions the evaluated set",
            ),
        ),
    )


# -- Observability overview: the repro.obs layer watching a sweep ---------------


def _obs_overview_scenarios():
    """Six thermal-side variants of the MATRIX-TM stress: same platform
    and workload (one trace digest), different die/spreader grids."""
    base = PRESETS.get("matrix_tm_unmanaged")()
    base.name = "obs_overview"
    base.max_emulated_seconds = 0.5
    configs = []
    for die in (4, 6, 8):
        for spreader in (2, 3):
            config = base.config.to_dict()
            config.update(
                die_resolution=[die, die],
                spreader_resolution=[spreader, spreader],
            )
            configs.append(Variant(f"d{die}s{spreader}", config))
    return list(sweep(base, {"config": configs}))


def _obs_overview_extract(results):
    """Run the sweep under a live tracer and read the layer's own books.

    The paper's framework is a monitoring loop (hardware sniffers,
    Ethernet statistics stream, SW thermal tool); ``repro.obs`` is the
    reproduction observing itself the same way.  This artifact runs a
    replay-deduped sweep with tracing on, folds the span log into a
    :class:`~repro.obs.timeline.RunTimeline`, and checks that the
    metrics ledger agrees with what the runner reports.
    """
    from repro.obs import catalog as obs_catalog
    from repro.obs.timeline import RunTimeline
    from repro.obs.tracing import SpanTracer, activate

    hits_before = obs_catalog.counter("repro_store_hits_total").value
    puts_before = obs_catalog.counter("repro_store_puts_total").value
    tracer = SpanTracer()
    with activate(tracer):
        results = Runner(trace_store=True).run(_obs_overview_scenarios())
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError(
            f"scenario {failed[0].name!r} failed: {failed[0].error}"
        )
    timeline = RunTimeline(tracer.events)
    shares = timeline.phase_shares()
    replayed = sum(1 for r in results if r.replayed)
    values = {
        "scenarios": float(len(results)),
        "replayed_scenarios": float(replayed),
        "replay_dedup_ratio": replayed / len(results),
        "store_puts_delta": (
            obs_catalog.counter("repro_store_puts_total").value - puts_before
        ),
        "store_hits_delta": (
            obs_catalog.counter("repro_store_hits_total").value - hits_before
        ),
        "phases_tracked": float(len(shares)),
        "solve_share": shares.get("solve", 0.0),
        "other_share": shares.get("other", 0.0),
        "span_events": float(len(tracer.events)),
        "runner_batch_spans": float(
            timeline.by_name.get("runner.batch", {}).get("count", 0)
        ),
        "scenario_spans": float(
            timeline.by_name.get("runner.scenario", {}).get("count", 0)
        ),
    }
    ledger = Table(
        ["signal", "value"],
        title="The sweep as the observability layer recorded it",
    )
    ledger.add_row("scenarios", len(results))
    ledger.add_row("replayed (trace-store dedup)", replayed)
    ledger.add_row("store puts / hits during the sweep",
                   f"{values['store_puts_delta']:g} / "
                   f"{values['store_hits_delta']:g}")
    ledger.add_row("span events", len(tracer.events))
    ledger.add_row("span-log structure digest",
                   timeline.digest()[:16] + "…")
    note = (
        "Per-phase wall-time breakdown of all six members (the emulated "
        "one and the five replays, which emulate nothing), folded from "
        "the JSONL span log the tracer streamed (the same view "
        "`python -m repro obs timeline` renders from `--obs-log` runs):"
    )
    body = (
        f"{markdown_table(ledger)}\n\n{note}\n\n"
        f"{code_block(timeline.render())}"
    )
    return values, body


@ARTIFACTS.register("obs_overview")
def obs_overview_artifact():
    return Artifact(
        name="obs_overview",
        title="Observability overview — repro.obs watching a sweep",
        paper_ref="Section 4 (monitoring loop, generalized)",
        description="Runs six thermal-side variants of the MATRIX-TM "
        "stress through the replay-deduped runner with span tracing "
        "active, then checks the observability layer's own ledger: "
        "replay dedup ratio from the trace-store counters, all five run "
        "phases present in the span timeline, and sane phase shares.",
        extract=_obs_overview_extract,
        checks=(
            Check("scenarios", expected=6.0),
            Check(
                "replay_dedup_ratio",
                low=0.8,
                high=1.0,
                note="five of six variants replay the first recording",
            ),
            Check("store_puts_delta", expected=1.0,
                  note="one emulation recorded, fanned out to the rest"),
            Check(
                "phases_tracked",
                expected=5.0,
                note="emulate/power/dispatch/solve/other all present",
            ),
            Check("solve_share", low=0.001, high=0.95),
            Check(
                "other_share",
                high=0.5,
                note="the sensors/policy residual must stay small",
            ),
            Check("runner_batch_spans", expected=1.0),
            Check("scenario_spans", expected=6.0),
        ),
    )


# -- Figure 6: thermal runtime with/without DFS ---------------------------------


def _fig6_extract(results):
    unmanaged, managed = results
    chart_a = unmanaged.trace.ascii_chart(
        width=68, height=14,
        title="Figure 6 (a): MATRIX-TM-class stress at 500 MHz, no thermal "
        "management (max component temperature)",
    )
    chart_b = managed.trace.ascii_chart(
        width=68, height=14,
        title="Figure 6 (b): the same stress under dual-threshold DFS "
        f"({UPPER_K:.0f}/{LOWER_K:.0f} K -> 100/500 MHz)",
    )
    summary = Table(
        ["run", "peak K", "final K", "emulated", "board time",
         "DFS switches", "100 MHz duty"],
        title="Figure 6 summary",
    )
    for label, result in (("no TM", unmanaged), ("DFS", managed)):
        report = result.report
        summary.add_row(
            label,
            f"{report.peak_temperature_k:.1f}",
            f"{report.final_temperature_k:.1f}",
            format_duration(report.emulated_seconds),
            format_duration(report.fpga_real_seconds),
            report.frequency_transitions,
            f"{result.trace.duty_cycle(100 * MHZ) * 100:.0f}%",
        )
    late = managed.trace.max_temps()[len(managed.trace) // 2:]
    values = {
        "unmanaged_peak_k": unmanaged.report.peak_temperature_k,
        "managed_peak_k": managed.report.peak_temperature_k,
        "managed_late_min_k": min(late),
        "frequency_transitions": float(managed.report.frequency_transitions),
        "slowdown": (
            managed.report.emulated_seconds / unmanaged.report.emulated_seconds
        ),
        "duty_100mhz": managed.trace.duty_cycle(100 * MHZ),
        "unmanaged_done": float(unmanaged.report.workload_done),
        "managed_done": float(managed.report.workload_done),
    }
    coverage = 0.18 / unmanaged.report.emulated_seconds * 100
    note = (
        "MPARM coverage note: in the paper, two days of MPARM simulation "
        f"covered only the first 0.18 s of this run ({coverage:.1f}% of "
        f"our {unmanaged.report.emulated_seconds:.1f} s unmanaged "
        "emulated duration) — the 'left corner of Figure 6'."
    )
    body = "\n\n".join(
        [code_block(chart_a), code_block(chart_b), markdown_table(summary), note]
    )
    return values, body


@ARTIFACTS.register("fig6")
def fig6_artifact():
    unmanaged = PRESETS.get("matrix_tm_unmanaged")()
    managed = PRESETS.get("matrix_tm_dfs")()
    return Artifact(
        name="fig6",
        title="Figure 6 — temperature evolution with and without DFS",
        paper_ref="Figure 6, Section 7",
        description="Runs the MATRIX-TM-class stress presets (unmanaged "
        "and dual-threshold DFS) and checks the published shape: the "
        "unmanaged run overheats past the 350 K threshold, the managed "
        "run clamps inside the 340-350 K hysteresis band and pays with "
        "run time.",
        extract=_fig6_extract,
        scenarios=(unmanaged, managed),
        capture_trace=True,
        checks=(
            Check(
                "unmanaged_peak_k",
                low=360.0,
                note="sails past the 350 K threshold toward steady state",
            ),
            Check(
                "managed_peak_k",
                high=UPPER_K + 2.0,
                note="one sampling period of overshoot allowed",
            ),
            Check(
                "managed_late_min_k",
                low=LOWER_K - 2.0,
                note="oscillates inside the hysteresis band",
            ),
            Check("frequency_transitions", low=4.0),
            Check(
                "slowdown",
                low=1.2,
                note="DFS pays with run time: same work, longer duration",
            ),
            Check("unmanaged_done", expected=1.0),
            Check("managed_done", expected=1.0),
        ),
    )
