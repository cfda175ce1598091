"""Batch execution: ordering, determinism, worker parallelism, errors."""

import pytest

from repro.core.framework import FrameworkConfig
from repro.core.stats import ThermalTrace
from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec
from repro.scenario.sweep import sweep
from repro.util.units import MHZ


def stress_profile_dict(cores=4):
    utilization = [[["core", i], 0.95] for i in range(cores)]
    utilization.append([["shared_mem", None], 0.2])
    return {
        "name": "stress",
        "cycles_per_iteration": 1000.0,
        "utilization": utilization,
        "instructions_per_iteration": 900.0,
    }


def profiled_scenario(name, iterations=200_000, policy=None):
    return Scenario(
        name=name,
        workload=WorkloadSpec(
            "profiled",
            {"profile": stress_profile_dict(), "total_iterations": iterations},
        ),
        floorplan="4xarm11",
        policy=PolicySpec.from_dict(policy),
        config=FrameworkConfig(virtual_hz=500 * MHZ, spreader_resolution=(2, 2)),
        max_emulated_seconds=5.0,
    )


def batch():
    return [
        profiled_scenario("unmanaged"),
        # Long enough to cross 350 K and latch the DFS low point.
        profiled_scenario(
            "dfs", iterations=5_000_000,
            policy={"name": "dual_threshold",
                    "params": {"high_hz": 500 * MHZ, "low_hz": 100 * MHZ}},
        ),
        profiled_scenario("short", iterations=10_000),
    ]


def physics(report):
    """Report content minus the wall-clock phase breakdown
    (``extras["timing"]``), which legitimately varies run to run."""
    data = report.to_dict()
    data.get("extras", {}).pop("timing", None)
    return data


def test_two_worker_batch_is_deterministic_and_ordered():
    results_a = Runner(workers=2).run(batch())
    results_b = Runner(workers=2).run(batch())
    assert [r.name for r in results_a] == ["unmanaged", "dfs", "short"]
    assert [r.index for r in results_a] == [0, 1, 2]
    assert all(r.ok for r in results_a)
    # Bit-identical physics in both batches, per scenario.
    for a, b in zip(results_a, results_b):
        assert physics(a.report) == physics(b.report)


def test_parallel_matches_serial():
    serial = Runner(workers=1).run(batch())
    parallel = Runner(workers=2).run(batch())
    for s, p in zip(serial, parallel):
        assert physics(s.report) == physics(p.report)


def test_pure_dict_scenarios_run_end_to_end():
    dicts = [s.to_dict() for s in batch()]
    results = Runner(workers=2).run(dicts)
    assert all(r.ok for r in results)
    assert results[1].report.frequency_transitions > 0
    assert results[2].report.workload_done


def test_errors_are_captured_per_scenario():
    bad = profiled_scenario("bad")
    bad.floorplan = "missing_floorplan"
    results = Runner(workers=2).run([profiled_scenario("good"), bad])
    good, failed = results
    assert good.ok and good.report is not None
    assert not failed.ok
    assert failed.report is None
    assert "unknown floorplan" in failed.error
    assert failed.name == "bad"


def test_capture_trace():
    results = Runner(workers=2, capture_trace=True).run(
        [profiled_scenario("a", iterations=10_000),
         profiled_scenario("b", iterations=10_000)]
    )
    for result in results:
        assert isinstance(result.trace, ThermalTrace)
        assert len(result.trace) == result.report.windows
    plain = Runner(workers=1).run([profiled_scenario("a", iterations=10_000)])
    assert plain[0].trace is None


def test_empty_batch_and_bad_workers():
    assert Runner(workers=2).run([]) == []
    with pytest.raises(ValueError):
        Runner(workers=-1)


def test_result_to_dict_includes_trace_summary():
    import json

    with_trace = Runner(capture_trace=True).run(
        [profiled_scenario("t", iterations=10_000)]
    )[0]
    payload = json.loads(json.dumps(with_trace.to_dict()))
    assert payload["trace"]["samples"] == with_trace.report.windows
    assert payload["trace"]["peak_temperature_k"] == pytest.approx(
        with_trace.report.peak_temperature_k
    )
    assert payload["trace"]["final_temperature_k"] == pytest.approx(
        with_trace.report.final_temperature_k
    )
    # Without a captured trace the key stays absent (old shape).
    without = Runner().run([profiled_scenario("t", iterations=10_000)])[0]
    assert "trace" not in without.to_dict()


def test_batched_matches_serial_within_tolerance():
    scenarios = batch()
    serial = Runner().run(scenarios)
    batched = Runner().run_batched(scenarios)
    assert [r.name for r in batched] == [r.name for r in serial]
    assert [r.index for r in batched] == [0, 1, 2]
    for s, b in zip(serial, batched):
        assert b.ok, b.error
        assert b.report.windows == s.report.windows
        assert b.report.workload_done == s.report.workload_done
        # One shared linearized factorization: bounded error vs. exact.
        assert b.report.peak_temperature_k == pytest.approx(
            s.report.peak_temperature_k, abs=0.5
        )
        assert b.report.final_temperature_k == pytest.approx(
            s.report.final_temperature_k, abs=0.5
        )


def test_batched_sweep_shares_one_assembly():
    from repro.thermal.rc_network import RCNetwork, clear_assembly_cache

    scenarios = sweep(profiled_scenario("grid", iterations=50_000), {
        "config.sensor_upper_kelvin": [342.0 + k for k in range(16)],
    })
    assert len(scenarios) == 16
    clear_assembly_cache()
    before = RCNetwork.assemblies
    results = Runner().run_batched(scenarios)
    assert RCNetwork.assemblies - before == 1  # 16 scenarios, one assembly
    assert all(r.ok for r in results)


def test_batched_members_report_their_share_of_solve_and_residual():
    """Every co-stepped member carries an even share of the group's shared
    solve and residual; the members' phases never exceed the group wall."""
    from repro.scenario.presets import PRESETS

    scenarios = []
    for upper in (345.0, 350.0):
        scenario = PRESETS.get("matrix_tm_cached")()
        scenario.name = f"upper{upper:g}"
        scenario.max_emulated_seconds = 0.5
        scenario.config.sensor_upper_kelvin = upper
        scenarios.append(scenario)
    results = Runner().run_batched(scenarios)
    assert all(r.ok for r in results)
    assert results[0].wall_seconds == results[1].wall_seconds  # one group
    for result in results:
        timing = result.report.extras["timing"]
        assert timing["solve"] > 0.0
        assert timing["other"] > 0.0
    member_phases = sum(
        sum(r.report.extras["timing"].values()) for r in results
    )
    assert member_phases <= results[0].wall_seconds


def test_batched_failure_keeps_finished_members_reports():
    """A mid-co-step crash fails only the unfinished group members; runs
    that had already reached their bounds keep their reports."""
    from repro.policy.base import POLICIES
    from repro.policy.builtin import NoManagementPolicy

    class ExplodeAfter(NoManagementPolicy):
        def react(self, sensors, vpcm, now):
            if now > 1.0:
                raise RuntimeError("policy blew up")

    POLICIES.register("explode_after", ExplodeAfter)
    try:
        short = profiled_scenario("short", iterations=10**9)
        short.max_emulated_seconds = 0.5
        long = profiled_scenario("long", iterations=10**9,
                                 policy="explode_after")
        long.max_emulated_seconds = 5.0
        finished, failed = Runner().run_batched([short, long])
    finally:
        POLICIES.unregister("explode_after")
    assert finished.ok
    assert finished.report.emulated_seconds == pytest.approx(0.5)
    assert not failed.ok
    assert "policy blew up" in failed.error
    assert failed.report is None


def test_batched_member_failing_in_its_final_window_is_failed():
    """A scenario whose workload completes during the very window that
    raises must come back FAILED (matching serial semantics), not as a
    bogus zero-window success."""
    from repro.policy.base import POLICIES
    from repro.policy.builtin import NoManagementPolicy

    class AlwaysExplode(NoManagementPolicy):
        def react(self, sensors, vpcm, now):
            raise RuntimeError("policy blew up")

    POLICIES.register("always_explode", AlwaysExplode)
    try:
        scenario = profiled_scenario("doomed", iterations=1,
                                     policy="always_explode")
        [batched] = Runner().run_batched([scenario])
        [serial] = Runner().run([scenario])
    finally:
        POLICIES.unregister("always_explode")
    assert not serial.ok
    assert not batched.ok
    assert "policy blew up" in batched.error
    assert batched.report is None


def test_batched_captures_per_scenario_build_errors():
    bad = profiled_scenario("bad")
    bad.floorplan = "missing_floorplan"
    results = Runner(capture_trace=True).run_batched(
        [profiled_scenario("good", iterations=10_000), bad]
    )
    good, failed = results
    assert good.ok and good.report is not None
    assert len(good.trace) == good.report.windows
    assert not failed.ok
    assert "unknown floorplan" in failed.error


def test_batched_survives_malformed_raw_dicts():
    results = Runner().run_batched(
        [profiled_scenario("good", iterations=10_000).to_dict(), {"name": "x"}]
    )
    good, failed = results
    assert good.ok and good.report is not None
    assert not failed.ok
    assert failed.name == "x"
    assert "workload" in failed.error


def test_sweep_through_runner():
    scenarios = sweep(profiled_scenario("grid", iterations=10_000), {
        "config.sensor_upper_kelvin": [360.0, 350.0],
    })
    results = Runner(workers=2).run(scenarios)
    assert [r.name for r in results] == [s.name for s in scenarios]
    assert all(r.ok for r in results)
    assert all(r.wall_seconds > 0 for r in results)


def stall_scenario(name, **overrides):
    """10 Hz virtual clock: every 10 ms window rounds to zero cycles, so
    the workload never progresses and only a stall bound can end the
    run (regression for the unbounded zero-progress spin)."""
    scenario = profiled_scenario(name)
    scenario.config.virtual_hz = 10.0
    scenario.max_emulated_seconds = None
    scenario.max_windows = None
    scenario.max_stall_windows = 4
    for key, value in overrides.items():
        setattr(scenario, key, value)
    return scenario


def test_scenario_stall_bound_round_trips_and_terminates():
    import json as _json

    scenario = stall_scenario("stall")
    rebuilt = Scenario.from_dict(_json.loads(_json.dumps(scenario.to_dict())))
    assert rebuilt.max_stall_windows == 4
    framework, report = rebuilt.run()
    assert framework.windows == 4
    assert report.stalled
    assert not report.workload_done


def test_runner_terminates_stall_bounded_scenarios():
    [result] = Runner().run([stall_scenario("stall")])
    assert result.ok
    assert result.report.stalled
    assert result.report.windows == 4


def test_batched_runner_honours_stall_bound():
    results = Runner().run_batched(
        [stall_scenario("stall_a"), stall_scenario("stall_b", max_stall_windows=6)]
    )
    assert [r.report.windows for r in results] == [4, 6]
    assert all(r.report.stalled for r in results)


# -- worker-failure handling: status + captured traceback --------------------


def test_pool_worker_failure_carries_status_and_traceback():
    """A scenario raising inside a pool worker must come back as one
    status="failed" result with the worker's formatted traceback — the
    rest of the batch completes (the farm workers reuse this path)."""
    bad = profiled_scenario("bad")
    bad.floorplan = "missing_floorplan"
    results = Runner(workers=2).run([profiled_scenario("good"), bad])
    good, failed = results
    assert good.status == "ok"
    assert good.traceback is None
    assert failed.status == "failed"
    assert failed.report is None
    assert "Traceback (most recent call last)" in failed.traceback
    assert "missing_floorplan" in failed.traceback


def test_result_dict_includes_status_and_traceback():
    bad = profiled_scenario("bad")
    bad.floorplan = "missing_floorplan"
    good_row, bad_row = [
        r.to_dict() for r in Runner().run([profiled_scenario("good"), bad])
    ]
    assert good_row["status"] == "ok" and good_row["traceback"] is None
    assert bad_row["status"] == "failed"
    assert "Traceback" in bad_row["traceback"]
    assert bad_row["report"] is None


def test_batched_failures_carry_traceback():
    results = Runner().run_batched(
        [profiled_scenario("good", iterations=10_000), {"name": "x"}]
    )
    good, failed = results
    assert good.status == "ok" and good.traceback is None
    assert failed.status == "failed"
    assert "Traceback" in failed.traceback


# -- batch-shared floorplans and per-group lifetime ---------------------------


@pytest.fixture
def counted_floorplans():
    """A registered ``"counted"`` floorplan factory; yields the list of
    its calls (the ``kind`` each resolved)."""
    from repro.thermal.floorplan import FLOORPLANS, floorplan_4xarm7, floorplan_4xarm11

    calls = []

    def counted(kind="4xarm11"):
        calls.append(kind)
        return floorplan_4xarm7() if kind == "4xarm7" else floorplan_4xarm11()

    FLOORPLANS.register("counted", counted)
    yield calls
    FLOORPLANS.unregister("counted")


def counted_batch():
    """Three members on two ``"counted"`` specs: the second is a grid
    twin of the first, so with a trace store it follows the first."""
    first = profiled_scenario("first", iterations=10_000)
    twin = profiled_scenario("twin", iterations=10_000)
    twin.config.spreader_resolution = (3, 3)
    other = profiled_scenario("other", iterations=10_000)
    first.floorplan = twin.floorplan = "counted"
    other.floorplan = {"name": "counted", "params": {"kind": "4xarm7"}}
    return [first, twin, other]


@pytest.mark.parametrize("entry", ["run", "run_batched"])
def test_each_floorplan_spec_resolves_once_per_batch(
    entry, counted_floorplans, monkeypatch
):
    import repro.scenario.runner as runner_module

    seen = {}  # member index -> the floorplan its runnable ran on
    finish = runner_module._Execution.finish

    def spying(self, member, runnable, capture, report, wall):
        seen[member.index] = runnable.floorplan
        return finish(self, member, runnable, capture, report, wall)

    monkeypatch.setattr(runner_module._Execution, "finish", spying)
    runner = Runner(trace_store=True)
    # A leader, its follower and a second leader; then all store hits.
    for replayed in ([False, True, False], [True, True, True]):
        counted_floorplans.clear()
        seen.clear()
        results = getattr(runner, entry)(counted_batch())
        assert all(r.ok for r in results)
        assert [r.replayed for r in results] == replayed
        assert sorted(counted_floorplans) == ["4xarm11", "4xarm7"]
        assert seen[0] is seen[1] and seen[0].name == "4xarm11"
        assert seen[2].name == "4xarm7"


def test_co_step_releases_a_group_before_the_next_one_starts(monkeypatch):
    """Frameworks are set up when their group starts and freed (by
    reference counting, not a later collection) when it ends."""
    import gc
    import weakref

    import repro.scenario.runner as runner_module
    from repro.scenario.presets import PRESETS

    groups, alive = [], []
    run_windows = runner_module.run_windows

    def spying(runnables, bounds, **kwargs):
        if groups:  # what is left of the previous group
            alive.append([ref() is not None for ref in groups[-1]])
        groups.append([weakref.ref(r) for r in runnables])
        return run_windows(runnables, bounds, **kwargs)

    monkeypatch.setattr(runner_module, "run_windows", spying)
    emulated = [PRESETS.get(name)() for name in
                ("matrix_quickstart", "dithering_noc")]
    for scenario in emulated:
        scenario.max_windows = 2
    # Two 4xarm7 platforms in one group, a 4xarm11 profile in another.
    scenarios = emulated + [profiled_scenario("profiled", iterations=10_000)]
    gc.disable()
    try:
        results = Runner(capture_trace=True, trace_store=True).run_batched(
            scenarios
        )
    finally:
        gc.enable()
    assert all(r.ok for r in results)
    assert all(len(r.trace) == r.report.windows for r in results)
    assert [len(group) for group in groups] == [2, 1]
    assert alive == [[False, False]]


def test_co_step_key_is_the_built_structure_key():
    """The group key known before a build is the key its network is
    stamped with, for every preset and a DSE point."""
    from repro.dse.space import default_points, point_scenario
    from repro.scenario.presets import PRESETS
    from repro.scenario.runner import _co_step_key
    from repro.thermal.floorplan import FLOORPLANS

    scenarios = [PRESETS.get(name)() for name in PRESETS.names()]
    scenarios.append(point_scenario(default_points()[0]))
    for scenario in scenarios:
        structure, period = _co_step_key(
            scenario, FLOORPLANS.resolve(scenario.floorplan)
        )
        framework = scenario.build()
        assert structure == framework.network.structure_key, scenario.name
        assert period == framework.config.sampling_period_s
