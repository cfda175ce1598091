"""Workload-model tests: direct execution and profiled replay."""

import pytest

from repro.core.workload_model import (
    ActivityProfile,
    DirectWorkload,
    ProfiledWorkload,
    profile_platform_run,
)
from repro.mpsoc.asm import assemble
from repro.power.models import PowerModel
from repro.thermal.floorplan import floorplan_4xarm7


def make_profile(cycles=1000, core_util=0.9):
    return ActivityProfile(
        name="k",
        cycles_per_iteration=cycles,
        utilization={("core", 0): core_util, ("icache", 0): 0.5},
        instructions_per_iteration=800,
    )


MODEL = PowerModel(floorplan_4xarm7())


def bound(profile, total_iterations):
    """A profiled workload bound to MODEL, as the framework binds it."""
    return ProfiledWorkload(profile, total_iterations).bind(MODEL)


def util(activity, source):
    return MODEL.utilization_map(activity)[source]


def test_profile_validation():
    with pytest.raises(ValueError):
        ActivityProfile(name="k", cycles_per_iteration=0)


def test_profiled_depletion():
    workload = bound(make_profile(cycles=1000), total_iterations=10)
    activity = workload.advance(4000)
    assert workload.completed_iterations == pytest.approx(4)
    assert util(activity, ("core", 0)) == pytest.approx(0.9)
    workload.advance(8000)  # only 6 iterations remain
    assert workload.done
    assert workload.instructions == pytest.approx(8000)


def test_profiled_partial_window_scales_activity():
    workload = bound(make_profile(cycles=1000), total_iterations=2)
    activity = workload.advance(8000)  # work fills only a quarter of it
    assert util(activity, ("core", 0)) == pytest.approx(0.9 * 0.25)
    assert workload.done


def test_profiled_zero_window():
    workload = bound(make_profile(), total_iterations=1)
    activity = workload.advance(0)
    assert util(activity, ("core", 0)) == 0.0
    assert not workload.done


def test_profiled_clamps_after_scaling():
    hot = ActivityProfile(
        name="hot", cycles_per_iteration=1000,
        utilization={("core", 0): 1.6, ("icache", 0): -0.5},
    )
    assert util(bound(hot, 10).advance(1000), ("core", 0)) == 1.0
    assert util(bound(hot, 10).advance(1000), ("icache", 0)) == 0.0
    # A quarter-busy window scales 1.6 to 0.4 before clamping.
    assert util(bound(hot, 1).advance(4000), ("core", 0)) == 0.4


def test_profiled_needs_binding():
    with pytest.raises(RuntimeError, match="bind the workload"):
        ProfiledWorkload(make_profile(), total_iterations=1).advance(100)


def test_profiled_validates():
    with pytest.raises(ValueError):
        ProfiledWorkload(make_profile(), total_iterations=0)


def test_direct_workload_runs_platform(platform1):
    program = assemble(
        """
        main:   li   r1, 200
        loop:   addi r1, r1, -1
                bgt  r1, r0, loop
                halt
        """
    )
    platform1.load_program(0, program)
    model = PowerModel(floorplan_4xarm7())
    workload = DirectWorkload(platform1, model)
    assert not workload.done
    activity = workload.advance(100)
    assert 0.0 < util(activity, ("core", 0)) <= 1.0
    while not workload.done:
        workload.advance(200)
    assert platform1.cores[0].halted
    assert workload.instructions == platform1.cores[0].instructions
    # After completion, windows report idle-only activity.
    tail = workload.advance(100)
    assert util(tail, ("core", 0)) < 0.2


def test_direct_workload_rejects_negative_window(platform1):
    program = assemble("main: halt")
    platform1.load_program(0, program)
    workload = DirectWorkload(platform1, PowerModel(floorplan_4xarm7()))
    with pytest.raises(ValueError):
        workload.advance(-1)


def test_profile_platform_run(platform1):
    program = assemble(
        """
        main:   li   r1, 50
        loop:   addi r1, r1, -1
                bgt  r1, r0, loop
                halt
        """
    )
    platform1.load_program(0, program)
    model = PowerModel(floorplan_4xarm7())
    profile = profile_platform_run(platform1, model, iterations=50, name="loop")
    assert profile.name == "loop"
    assert profile.cycles_per_iteration > 0
    assert profile.instructions_per_iteration == pytest.approx(
        platform1.cores[0].instructions / 50
    )
    assert 0.0 < profile.utilization[("core", 0)] <= 1.0
    # The profile holds what the one-core platform reported, including
    # its bus, which 4xarm7 has no region for, and no other core.
    assert ("bus", None) in profile.utilization
    assert ("core", 1) not in profile.utilization
