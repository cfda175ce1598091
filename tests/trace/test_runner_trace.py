"""Runner + trace store: transparent replay, fan-out, grouping, stride."""

import pytest

from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario
from repro.scenario.sweep import Variant, sweep
from repro.trace.capture import record
from repro.trace.store import TraceStore
from tests.trace.conftest import short_scenario


def thermal_sweep(count=4, seconds=1.0):
    """`count` open-loop variants differing only in thermal-side knobs."""
    base = short_scenario(seconds=seconds)
    resolutions = [Variant(f"{n}x{n}", [n, n]) for n in range(6, 6 + count)]
    return sweep(
        base,
        {
            "config.grid_mode": ["uniform"],
            "config.die_resolution": resolutions,
        },
    )


def test_run_records_leader_and_replays_followers():
    variants = thermal_sweep(4)
    store = TraceStore()
    results = Runner(trace_store=store).run(variants)
    assert all(r.ok for r in results)
    assert [r.replayed for r in results] == [False, True, True, True]
    assert len(store) == 1  # one digest, one recording
    # Each variant still solved its own grid.
    cells = [r.report.extras["thermal_cells"] for r in results]
    assert len(set(cells)) == 4


def test_sixteen_variant_thermal_sweep_replays_fifteen():
    """Die resolution x spreader x solver backend over one cycle-accurate
    4-core MATRIX run: one recording, fifteen thermal-only replays."""
    base = PRESETS.get("matrix_quickstart")()
    base.name = "trace_replay_sweep"
    base.workload.params.update(n=8, iterations=2)
    members = sweep(
        base,
        {
            "config.grid_mode": ["uniform"],
            "config.die_resolution": [
                Variant(f"{n}x{n}", [n, n]) for n in (4, 6, 8, 10)
            ],
            "config.spreader_resolution": [
                Variant(f"sp{n}x{n}", [n, n]) for n in (2, 3)
            ],
            "config.solver_backend": ["sparse_be", "cached_lu"],
        },
    )
    assert len(members) == 16
    results = Runner(trace_store=TraceStore()).run(members)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    assert sum(r.replayed for r in results) == 15


def test_run_replays_from_a_prepopulated_store(tmp_path, stress_scenario):
    _, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path)
    store.put(archive)
    results = Runner(trace_store=store).run([stress_scenario])
    assert results[0].replayed
    assert results[0].report.extras["replay"]["source"] == str(tmp_path)


def test_runner_accepts_store_path_and_true(tmp_path):
    assert Runner(trace_store=str(tmp_path)).trace_store.root == tmp_path
    assert Runner(trace_store=True).trace_store.in_memory


def test_pool_workers_record_into_the_store(tmp_path):
    variants = thermal_sweep(3)
    results = Runner(workers=2, trace_store=str(tmp_path)).run(variants)
    assert all(r.ok for r in results)
    assert sum(r.replayed for r in results) == 2
    assert len(TraceStore(tmp_path)) == 1


def test_replay_matches_live_results():
    variants = thermal_sweep(3)
    live = Runner().run(variants)
    replayed = Runner(trace_store=TraceStore()).run(variants)
    for a, b in zip(live, replayed):
        assert a.report.windows == b.report.windows
        assert abs(
            a.report.peak_temperature_k - b.report.peak_temperature_k
        ) < 1e-6


def test_reactive_scenarios_never_share_recordings():
    base = short_scenario("matrix_tm_dfs")
    variants = sweep(
        base,
        {"config.die_resolution": [Variant("8x8", [8, 8]),
                                   Variant("10x10", [10, 10])],
         "config.grid_mode": ["uniform"]},
    )
    store = TraceStore()
    results = Runner(trace_store=store).run(variants)
    assert all(r.ok for r in results)
    assert not any(r.replayed for r in results)
    assert len(store) == 2  # each closed-loop variant recorded itself
    # ... but an exact re-run of either replays.
    again = Runner(trace_store=store).run(variants)
    assert all(r.replayed for r in again)


def test_run_batched_mixes_live_and_replay_members():
    variants = thermal_sweep(3)
    store = TraceStore()
    results = Runner(trace_store=store).run_batched(variants)
    assert all(r.ok for r in results)
    assert [r.replayed for r in results] == [False, True, True]
    serial = Runner().run_batched(variants)
    for a, b in zip(serial, results):
        assert abs(
            a.report.peak_temperature_k - b.report.peak_temperature_k
        ) < 1e-6


def test_run_batched_replays_store_hits_in_shared_groups(stress_scenario):
    store = TraceStore()
    first = Runner(trace_store=store).run_batched([stress_scenario])
    assert not first[0].replayed
    again = Runner(trace_store=store).run_batched(
        [stress_scenario, short_scenario(name="twin")]
    )
    assert all(r.replayed for r in again)
    assert all(r.ok for r in again)


def test_follower_falls_back_to_live_when_leader_fails():
    good = short_scenario(name="good")
    bad = short_scenario(name="bad")
    # Leader fails on the thermal side (bogus backend dict params) while
    # sharing the follower's emulation digest... a bad backend fails at
    # config validation, so instead poison the leader's floorplan.
    bad.floorplan = "no_such_plan"
    results = Runner(trace_store=TraceStore()).run([bad, good])
    assert not results[0].ok
    assert results[1].ok  # ran live despite the failed leader


def planner_batch():
    """A store hit, two leaders (the second fails on its thermal side),
    one follower of each leader, and an unparseable dict."""
    hit = short_scenario(name="hit", seconds=0.5)
    leader = short_scenario(name="leader")
    leader_twin = short_scenario(name="leader_twin")
    leader_twin.config.grid_mode = "uniform"
    doomed = short_scenario(name="doomed", seconds=0.7)
    doomed.config.grid_mode = "bogus"  # parses; fails when built
    doomed_twin = short_scenario(name="doomed_twin", seconds=0.7)
    return [hit, leader, doomed, leader_twin, doomed_twin, {"name": "x"}]


@pytest.mark.parametrize("entry", ["run", "run_batched"])
def test_serial_and_batched_entry_points_plan_alike(entry):
    batch = planner_batch()
    store = TraceStore()
    store.put(record(batch[0])[2])
    with pytest.raises(ValueError) as build_error:
        batch[2].build()
    with pytest.raises(ValueError) as parse_error:
        Scenario.from_dict(batch[5])
    results = getattr(Runner(trace_store=store), entry)(batch)
    assert [(r.status, r.replayed, r.error) for r in results] == [
        ("ok", True, None),
        ("ok", False, None),
        ("failed", False, f"ValueError: {build_error.value}"),
        ("ok", True, None),
        # The failed leader recorded nothing: its follower runs live.
        ("ok", False, None),
        ("failed", False, f"ValueError: {parse_error.value}"),
    ]
    assert results[4].report.windows > 0


# -- the structure-content group key (regression) ---------------------------


def test_batched_grouping_keys_on_structure_content_not_identity():
    """Two structurally identical scenarios must co-step in one group
    even when cache eviction gave them distinct grid objects."""
    from repro.scenario.runner import _co_step_key
    from repro.thermal.rc_network import clear_assembly_cache

    a = short_scenario(name="a")
    b = short_scenario(name="b")
    fa = a.build()
    clear_assembly_cache()  # simulates mid-batch eviction
    fb = b.build()
    assert fa.grid is not fb.grid and fa.floorplan is not fb.floorplan
    assert _co_step_key(a, fa.floorplan) == _co_step_key(b, fb.floorplan)
    # End to end: one co-step group means one shared wall-clock float.
    builds = [a, b]
    clear_assembly_cache()
    results = Runner().run_batched(builds)
    assert results[0].wall_seconds == results[1].wall_seconds


def test_run_batched_runs_given_scenarios_without_mutating_them():
    """Scenarios run as given and come back unchanged."""
    variants = thermal_sweep(3)
    before = [s.to_dict() for s in variants]
    results = Runner(trace_store=TraceStore(), capture_trace=True).run_batched(
        variants
    )
    assert all(r.ok for r in results)
    assert [r.replayed for r in results] == [False, True, True]
    assert [s.to_dict() for s in variants] == before
