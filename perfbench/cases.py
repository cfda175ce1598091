"""The benchmark's three workloads: seeded inputs, one timed iteration,
correctness checks and the simulated-statistics fingerprint.

Each case is a closed loop with one client: iterations run back to
back, and every iteration is one whole user-visible run (set-up
included).  The seed only shapes the *inputs*; the program sees nothing
but the generated inputs.
"""

import gc
import hashlib
import json
import random
import time

import numpy as np

DITHER_WORKLOAD = "perfbench_random_dither"
DITHER_SIZE = 48  # 48x48 images: 2.3 KB each, 4.6 KB shared working set
DITHER_IMAGES = 2
DITHER_PERIOD_S = 1e-4  # about 37 windows per run
DFS_ITERATIONS = 20_000_000  # 10x matrix_tm_cached: about 11k windows
DFS_MAX_SECONDS = 600.0  # bound well past the lengthened run's end
DFS_JITTER = 0.03  # seeded +/- 3 % perturbation of every utilization
DSE_SETUPS = 5  # set-ups timed per DSE iteration (each about 0.1 s)


def dither_images(seed, size=DITHER_SIZE, count=DITHER_IMAGES):
    """The seeded random grey input images."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=(size, size), dtype=np.uint8)
        for _ in range(count)
    ]


def _register_dither_workload():
    """Register the seeded-image DITHERING generator (once per process)."""
    from repro.scenario.registry import WORKLOADS
    from repro.workloads import dithering_programs
    from repro.workloads.dithering import image_base

    def generator(platform, floorplan, seed, width, height, num_images):
        for index, image in enumerate(
            dither_images(seed, width, num_images)
        ):
            platform.write_shared(
                image_base(index, width, height), image.tobytes()
            )
        platform.load_program_all(
            dithering_programs(len(platform.cores), width, height, num_images)
        )

    if DITHER_WORKLOAD not in WORKLOADS:
        WORKLOADS.register(DITHER_WORKLOAD, generator)


def trace_digest(trace):
    """SHA-256 over every sample of a ThermalTrace (exact float reprs)."""
    blob = json.dumps(trace.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _platform_counts(platform):
    """Simulated cache/NoC statistics of a platform, or zeros without one."""
    counts = {"icache_accesses": 0.0, "icache_misses": 0.0,
              "dcache_accesses": 0.0, "dcache_misses": 0.0, "noc_flits": 0.0}
    if platform is None:
        return counts
    stats = platform.stats()
    for family in ("icache", "dcache"):
        for cache in stats[f"{family}s"].values():
            counts[f"{family}_accesses"] += cache["accesses"]
            counts[f"{family}_misses"] += cache["misses"]
    counts["noc_flits"] = float(stats["interconnect"].get("flits", 0))
    return counts


class Check:
    """One named correctness check result."""

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def line(self):
        return f"check {'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


class Iteration:
    """Host timings, simulated statistics and outputs of one iteration.

    Timings are in seconds of the ``clock`` the iteration ran with (host
    seconds less gauge probes, see ``gauge.py``); ``factor`` converts
    them to reference seconds.
    """

    def __init__(self):
        self.setup_s = []  # seconds per set-up
        self.wall_s = 0.0
        # Seconds per closed-loop window, keyed by the window's identity:
        # identical work recurs under that key in every iteration.
        self.latencies = {}
        self.factor = 1.0  # reference seconds per second of the clock
        self.instructions = 0.0
        self.windows = 0
        self.designs = 1
        self.failed_designs = 0
        self.stats = {}  # the simulated-statistics fingerprint
        self.layer = {}  # further simulated statistics for the per-layer report
        self.outputs = None  # what the correctness checks inspect


# -- single-scenario cases ---------------------------------------------------

class _ScenarioCase:
    """A case that builds one scenario and drives its windows itself, so
    every window's host latency is timed."""

    probe = "dense"  # the gauge kernel (see gauge.py)

    def __init__(self, seed):
        self.seed = seed
        self.scenario = self.make_scenario()

    def make_scenario(self):
        raise NotImplementedError

    def before_build(self):
        from repro.thermal.rc_network import clear_assembly_cache

        # Every iteration pays network assembly, like a fresh CLI process.
        clear_assembly_cache()

    def run_once(self, scenario, clock):
        """Build and run ``scenario``, timing the set-up and every window.

        Returns ``(framework, report, setup_s, window latencies)``.
        """
        start = clock()
        self.before_build()
        framework = scenario.build()
        setup = clock() - start
        bounds = (scenario.max_emulated_seconds, scenario.max_windows,
                  scenario.max_stall_windows)
        step = framework.step_window
        latencies = []
        while not framework.bounds_reached(*bounds):
            t0 = clock()
            step()
            latencies.append(clock() - t0)
        return framework, framework.report(), setup, latencies

    def iteration(self, traced, clock):
        it = Iteration()
        with traced():
            start = clock()
            framework, report, setup, latencies = self.run_once(
                self.scenario, clock
            )
            it.wall_s = clock() - start
        it.setup_s = [setup]
        it.latencies = dict(enumerate(latencies))
        it.instructions = float(report.instructions)
        it.windows = report.windows
        counts = _platform_counts(framework.platform)
        it.stats = {
            "instructions": report.instructions,
            "end_cycle": report.extras.get("end_cycle", 0),
            "windows": report.windows,
            "cache_misses": counts["icache_misses"] + counts["dcache_misses"],
            "dfs_transitions": report.frequency_transitions,
            "peak_k": report.peak_temperature_k,
            "trace_digest": trace_digest(framework.trace),
        }
        it.layer = {
            **counts,
            "end_cycle": it.stats["end_cycle"],
            "transitions": it.stats["dfs_transitions"],
            "freeze_s": sum(report.freeze_breakdown.values()),
            "replayed": 0,
            "scenarios": 1,
        }
        return it


class EmuDither(_ScenarioCase):
    """DITHERING on the 2-switch NoC platform, run on both emulation
    backends per iteration: ``event_driven`` (the exact interpreter) and
    ``windowed`` with a cold calibration cache (a CLI process pays
    calibration on every invocation)."""

    probe = "interpreter"

    def make_scenario(self, backend="event_driven", size=DITHER_SIZE):
        from repro.scenario.presets import PRESETS

        _register_dither_workload()
        scenario = PRESETS.get("dithering_noc")()
        scenario.name = f"perfbench_{backend}_{size}"
        scenario.workload.name = DITHER_WORKLOAD
        scenario.workload.params = {
            "seed": self.seed, "width": size, "height": size,
            "num_images": DITHER_IMAGES,
        }
        scenario.config.sampling_period_s = DITHER_PERIOD_S
        scenario.config.emulation_backend = backend
        return scenario

    def __init__(self, seed):
        super().__init__(seed)
        self.windowed = self.make_scenario("windowed")

    def before_build(self):
        from repro.emulation.windowed import clear_calibration_cache

        super().before_build()
        clear_calibration_cache()

    def warm_up(self):
        for backend in ("event_driven", "windowed"):
            self.run_once(self.make_scenario(backend, size=16),
                          time.perf_counter)

    def iteration(self, traced, clock):
        from repro.workloads.dithering import read_image

        it = Iteration()
        with traced():
            start = clock()
            exact_fw, exact, exact_setup, exact_lat = self.run_once(
                self.scenario, clock
            )
            cold_fw, cold, cold_setup, _ = self.run_once(self.windowed, clock)
            it.wall_s = clock() - start
        it.setup_s = [exact_setup + cold_setup]
        # Window latency is the exact interpreter's closed-loop window;
        # the windowed run's windows still count towards wall_s.
        it.latencies = dict(enumerate(exact_lat))
        it.instructions = float(exact.instructions + cold.instructions)
        it.windows = exact.windows + cold.windows
        it.designs = 2
        counts = _platform_counts(exact_fw.platform)
        it.stats = {
            backend: {
                "instructions": report.instructions,
                "end_cycle": report.extras.get("end_cycle", 0),
                "windows": report.windows,
                "cache_misses": (stats["icache_misses"]
                                 + stats["dcache_misses"]),
                "dfs_transitions": report.frequency_transitions,
                "peak_k": report.peak_temperature_k,
                "trace_digest": trace_digest(framework.trace),
            }
            for backend, framework, report, stats in (
                ("event_driven", exact_fw, exact, counts),
                ("windowed", cold_fw, cold, _platform_counts(cold_fw.platform)),
            )
        }
        it.layer = {
            **counts,
            "end_cycle": exact.extras["end_cycle"],
            "transitions": exact.frequency_transitions
            + cold.frequency_transitions,
            "freeze_s": sum(exact.freeze_breakdown.values())
            + sum(cold.freeze_breakdown.values()),
            "replayed": 0,
            "scenarios": 2,
        }
        it.outputs = [
            read_image(exact_fw.platform, index, DITHER_SIZE, DITHER_SIZE)
            for index in range(DITHER_IMAGES)
        ]
        it.powers = {
            backend: [sample.total_power_w for sample in fw.trace.samples]
            for backend, fw in (("event_driven", exact_fw),
                                ("windowed", cold_fw))
        }
        it.reports = (exact, cold)
        return it

    def checks(self, iterations):
        from repro.emulation.backends import make_emulation_backend
        from repro.workloads.dithering import golden_dither

        goldens = [golden_dither(image) for image in dither_images(self.seed)]
        exact_images = all(
            all(np.array_equal(out, gold)
                for out, gold in zip(it.outputs, goldens))
            for it in iterations
        )
        tolerance = make_emulation_backend("windowed").power_tolerance_pct
        it = iterations[-1]
        exact, cold = it.reports
        ref_powers = it.powers["event_driven"]
        powers = it.powers["windowed"]
        deviation = max(
            (abs(p - r) / r * 100.0 for p, r in zip(powers, ref_powers) if r),
            default=float("inf"),
        )
        instr_dev = (abs(cold.instructions - exact.instructions)
                     / exact.instructions * 100.0)
        self.power_dev_pct = deviation
        return [
            Check("images bit-exact against golden_dither", exact_images,
                  f"{len(iterations)} runs x {DITHER_IMAGES} images "
                  f"{DITHER_SIZE}x{DITHER_SIZE}"),
            Check("windowed window count equals event_driven",
                  cold.windows == exact.windows == len(powers),
                  f"{cold.windows} vs {exact.windows}"),
            Check("windowed instruction total within tolerance",
                  instr_dev <= tolerance,
                  f"{instr_dev:.3g} % vs {tolerance:g} %"),
            Check("windowed per-window power within tolerance",
                  deviation <= tolerance,
                  f"worst {deviation:.4f} % vs {tolerance:g} %"),
        ]


class ThermalDfsLoop(_ScenarioCase):
    """matrix_tm_cached lengthened 10x, seeded utilization perturbation."""

    def make_scenario(self, iterations=DFS_ITERATIONS):
        from repro.core.workload_model import ActivityProfile
        from repro.scenario.presets import PRESETS

        scenario = PRESETS.get("matrix_tm_cached")()
        scenario.name = "perfbench_dfs_loop"
        params = scenario.workload.params
        profile = ActivityProfile.from_dict(params["profile"])
        rng = random.Random(self.seed)
        profile.utilization = {
            source: value * (1.0 + rng.uniform(-DFS_JITTER, DFS_JITTER))
            for source, value in profile.utilization.items()
        }
        params["profile"] = profile.to_dict()
        params["total_iterations"] = iterations
        scenario.max_emulated_seconds = DFS_MAX_SECONDS
        return scenario

    def warm_up(self):
        self.run_once(self.make_scenario(iterations=DFS_ITERATIONS // 20),
                      time.perf_counter)

    def checks(self, iterations):
        from repro.trace.capture import record
        from repro.trace.replay import replay

        config = self.scenario.config
        digests = {it.stats["trace_digest"] for it in iterations}
        peak = iterations[-1].stats["peak_k"]
        # One window of heating may carry the die past the upper
        # threshold before the policy's DFS step lands.
        band = (config.sensor_lower_kelvin, config.sensor_upper_kelvin + 1.0)
        self.before_build()
        _, _, archive = record(self.scenario)
        player, _ = replay(archive)
        replayed = trace_digest(player.trace)
        live = iterations[-1].stats["trace_digest"]
        return [
            Check("trace digest repeats for the seed", len(digests) == 1,
                  f"{len(digests)} distinct over {len(iterations)} runs"),
            Check("peak inside the DFS band", band[0] <= peak <= band[1],
                  f"{peak:.3f} K in [{band[0]:g}, {band[1]:g}] K"),
            Check("record -> replay reproduces the digest", replayed == live,
                  f"{replayed[:12]} vs {live[:12]}"),
        ]


# -- the DSE sweep -----------------------------------------------------------

class DseSweep:
    """``python -m repro dse`` with CLI defaults over seeded point order."""

    probe = "dense"

    def __init__(self, seed):
        self.seed = seed

    def points(self):
        """The default points, twin blocks in seeded order.

        The grid axis is innermost, so the grid twins of one design sit
        side by side; a block keeps its default order, so its coarse
        twin leads and the fine one replays, as in the CLI's sweep.  A
        shuffle of single points would instead change, seed by seed,
        which twin emulates and so what each co-stepped group runs.
        """
        from repro.dse import space

        points = space.default_points()
        width = len(space.DEFAULT_GRIDS)
        blocks = [points[i:i + width] for i in range(0, len(points), width)]
        random.Random(self.seed).shuffle(blocks)
        return [point for block in blocks for point in block]

    def warm_up(self):
        from repro.dse import driver, space

        points = space.generate_points(big_counts=(1,), little_counts=(0, 1),
                                       big_hz_steps=(space.DEFAULT_BIG_HZ[0],))
        driver.run_dse(points, refine_top=0)

    def iteration(self, traced, clock):
        from repro.dse import driver, space
        from repro.scenario.runner import Runner
        from repro.thermal.rc_network import clear_assembly_cache

        class KeepResults(Runner):
            """The CLI's runner, keeping the per-design results."""

            def run_batched(self, scenarios, library=None):
                self.results = super().run_batched(scenarios, library)
                return self.results

        it = Iteration()
        # Set-up: point and scenario generation, as run_dse does first,
        # each from a collected heap so no set-up pays another's garbage.
        for _ in range(DSE_SETUPS):
            gc.collect()
            start = clock()
            for point in self.points():
                space.point_scenario(point)
            it.setup_s.append(clock() - start)

        clear_assembly_cache()  # a fresh CLI process assembles every network
        runner = KeepResults(capture_trace=True, trace_store=True)
        with traced():
            start, host_start = clock(), time.perf_counter()
            report = driver.run_dse(self.points(), runner=runner)
            it.wall_s = clock() - start
            # The runner times each group in host seconds: scale them by
            # the share of the sweep that was not spent in gauge probes.
            busy = it.wall_s / (time.perf_counter() - host_start)
        results = runner.results
        ok = [r for r in results if r.ok]
        it.designs = len(results)
        it.failed_designs = len(results) - len(ok)
        it.instructions = float(sum(r.report.instructions for r in ok))
        it.windows = sum(r.report.windows for r in ok)
        # Members of one structure-sharing group co-step every window
        # together and share one wall time: one latency sample per group
        # is that wall over the group's windows, keyed by its members.
        # Only groups that emulate count: replaying groups only solve, so
        # with them the samples split into two clusters of 24 groups
        # each and the median fell in the gap between.
        groups = {}
        for result in ok:
            groups.setdefault(result.wall_seconds, []).append(result)
        for wall, members in groups.items():
            windows = max(r.report.windows for r in members)
            if windows and not any(r.replayed for r in members):
                key = tuple(sorted(r.index for r in members))
                it.latencies[key] = wall * busy / windows
        front = sorted(
            (row["design"], row["peak_temperature_k"], row["avg_power_w"],
             row["throughput_ips"])
            for row in report["front"]
        )
        it.stats = {
            "instructions": it.instructions,
            "end_cycle": 0,
            "windows": it.windows,
            "cache_misses": 0,
            "dfs_transitions": sum(
                r.report.frequency_transitions for r in ok
            ),
            "peak_k": max(r.report.peak_temperature_k for r in ok),
            "trace_digest": hashlib.sha256(
                json.dumps(front).encode()
            ).hexdigest(),
        }
        it.layer = {
            "icache_accesses": 0.0, "icache_misses": 0.0,
            "dcache_accesses": 0.0, "dcache_misses": 0.0, "noc_flits": 0.0,
            "end_cycle": 0,
            "transitions": it.stats["dfs_transitions"],
            "freeze_s": sum(
                sum(r.report.freeze_breakdown.values()) for r in ok
            ),
            "replayed": report["replayed"],
            "scenarios": len(results),
        }
        it.outputs = report
        return it

    def checks(self, iterations):
        from repro.dse.pareto import OBJECTIVES

        def dominates(a, b):
            better = False
            for key, sense in OBJECTIVES:
                av, bv = (a[key], b[key]) if sense == "min" else (b[key], a[key])
                if av > bv:
                    return False
                better = better or av < bv
            return better

        expected = len(self.points())
        checks = []
        for number, it in enumerate(iterations):
            report = it.outputs
            front = report["front"]
            mutual = sum(
                1 for a in front for b in front if a is not b and dominates(a, b)
            )
            checks.append(Check(
                f"run {number}: sweep complete and front non-dominated",
                report["evaluated"] == expected and report["failed"] == 0
                and report["replayed"] == expected // 2 and front
                and mutual == 0
                and report["front_size"] + report["dominated"] == expected,
                f"evaluated {report['evaluated']}/{expected}, failed "
                f"{report['failed']}, replayed {report['replayed']}, front "
                f"{len(front)}, dominating pairs {mutual}",
            ))
        return checks


CASES = {
    "emu_dither": EmuDither,
    "thermal_dfs_loop": ThermalDfsLoop,
    "dse_sweep": DseSweep,
}
