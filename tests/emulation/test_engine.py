"""Event-driven engine tests: windows, ordering, idle accounting."""

import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.asm import assemble
from repro.mpsoc.platform import SHARED_BASE


def counting_program(n):
    return assemble(
        f"""
        main:   li   r1, {n}
        loop:   addi r1, r1, -1
                bgt  r1, r0, loop
                halt
        """
    )


def test_run_window_stops_at_boundary(platform1):
    platform1.load_program(0, counting_program(10_000))
    engine = EventDrivenEngine(platform1)
    engine.run_window(100)
    core = platform1.cores[0]
    assert 100 <= core.cycle <= 110  # one instruction of overshoot at most
    assert not core.halted


def test_windows_resume_where_they_stopped(platform1):
    platform1.load_program(0, counting_program(50))
    engine = EventDrivenEngine(platform1)
    engine.run_window(40)
    mid_instructions = platform1.cores[0].instructions
    engine.run_window(10**9, idle_to_boundary=False)
    assert platform1.cores[0].instructions > mid_instructions
    assert platform1.cores[0].halted


def test_halted_cores_idle_to_boundary(platform2):
    platform2.load_program(0, counting_program(5))
    platform2.load_program(1, counting_program(5000))
    engine = EventDrivenEngine(platform2)
    engine.run_window(5000)
    fast_core = platform2.cores[0]
    assert fast_core.halted
    assert fast_core.cycle == 5000
    assert fast_core.idle_cycles > 0


def test_run_to_completion(platform2):
    platform2.load_program(0, counting_program(100))
    platform2.load_program(1, counting_program(200))
    engine = EventDrivenEngine(platform2)
    instructions, end_cycle = engine.run_to_completion()
    assert engine.all_halted
    assert instructions == sum(c.instructions for c in platform2.cores)
    assert end_cycle == max(c.cycle for c in platform2.cores)
    # Both cores are aligned to the end of the run.
    assert platform2.cores[0].cycle == end_cycle


def test_run_to_completion_budget(platform1):
    platform1.load_program(0, counting_program(10**6))
    engine = EventDrivenEngine(platform1)
    with pytest.raises(RuntimeError, match="budget"):
        engine.run_to_completion(max_cycles=10**5, max_instructions=1000)


def test_global_time_ordering_on_shared_memory(platform2):
    """Cores write a shared counter; ordering must follow local time."""
    incr = assemble(
        f"""
        main:   li   r5, 0x{SHARED_BASE:08x}
                li   r2, 100
        loop:   lw   r3, 0(r5)
                addi r3, r3, 1
                sw   r3, 0(r5)
                addi r2, r2, -1
                bgt  r2, r0, loop
                halt
        """
    )
    platform2.load_program(0, incr)
    platform2.load_program(1, incr)
    engine = EventDrivenEngine(platform2)
    engine.run_to_completion()
    total = platform2.shared_mem.read_word(0)
    # Unsynchronized increments may race (lost updates are physical), but
    # the count must be between one core's worth and the sum.
    assert 100 <= total <= 200


def test_instructions_counter_accumulates(platform1):
    platform1.load_program(0, counting_program(30))
    engine = EventDrivenEngine(platform1)
    engine.run_window(20)
    engine.run_window(10**9, idle_to_boundary=False)
    assert engine.instructions_executed == platform1.cores[0].instructions


@pytest.mark.parametrize("budget", [1, 7, 150, 999])
def test_window_budget_executes_exactly_that_many(platform2, budget):
    # Cores run ahead through the loop (private work) between their
    # shared loads; the budget still caps the window's total exactly.
    program = assemble(f"""
        main:   li   r1, 400
                li   r8, {SHARED_BASE}
        loop:   lw   r2, 0(r8)
                addi r1, r1, -1
                addi r3, r3, 1
                bgt  r1, r0, loop
                halt
    """)
    for index in range(2):
        platform2.load_program(index, program)
    executed = EventDrivenEngine(platform2).run_window(10**9, max_instructions=budget)
    assert executed == budget
    assert sum(core.instructions for core in platform2.cores) == budget
