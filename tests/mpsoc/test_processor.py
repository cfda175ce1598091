"""Processor semantics and timing-accounting tests.

Each semantic test assembles a tiny program, runs it on a single-core
platform and checks architectural state; wraparound semantics are
cross-checked against Python's own two's-complement arithmetic with
hypothesis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpsoc import events as ev
from repro.mpsoc.asm import assemble
from repro.mpsoc.memctrl import AccessFault
from repro.mpsoc.platform import build_platform
from repro.mpsoc.processor import CORE_SPECS, ExecutionError
from tests.conftest import small_config

I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def run_source(source, core_spec="microblaze", max_instructions=100000):
    from repro.mpsoc.platform import CoreConfig

    config = small_config(1, cores=[CoreConfig("cpu0", spec=core_spec)])
    platform = build_platform(config)
    program = assemble(source)
    platform.load_program(0, program)
    platform.cores[0].run(max_instructions=max_instructions)
    return platform


def regs_after(source, **kwargs):
    return run_source(source, **kwargs).cores[0].regs


def test_arithmetic_basics():
    regs = regs_after(
        """
        main:   li   r1, 7
                li   r2, 3
                add  r3, r1, r2
                sub  r4, r1, r2
                mul  r5, r1, r2
                div  r6, r1, r2
                rem  r7, r1, r2
                halt
        """
    )
    assert regs[3] == 10
    assert regs[4] == 4
    assert regs[5] == 21
    assert regs[6] == 2
    assert regs[7] == 1


def test_division_truncates_toward_zero():
    regs = regs_after(
        """
        main:   li   r1, -7
                li   r2, 2
                div  r3, r1, r2
                rem  r4, r1, r2
                halt
        """
    )
    # C semantics: -7 / 2 == -3, -7 % 2 == -1.
    assert regs[3] == (-3) & 0xFFFFFFFF
    assert regs[4] == (-1) & 0xFFFFFFFF


def test_division_by_zero_is_defined():
    regs = regs_after(
        """
        main:   li   r1, 9
                li   r2, 0
                div  r3, r1, r2
                rem  r4, r1, r2
                halt
        """
    )
    assert regs[3] == 0xFFFFFFFF  # -1, the usual RISC convention
    assert regs[4] == 9


def test_logic_and_shifts():
    regs = regs_after(
        """
        main:   li   r1, 0xF0F0
                li   r2, 0x0FF0
                and  r3, r1, r2
                or   r4, r1, r2
                xor  r5, r1, r2
                slli r6, r1, 4
                srli r7, r1, 4
                li   r8, -16
                srai r9, r8, 2
                halt
        """
    )
    assert regs[3] == 0x0FF0 & 0xF0F0
    assert regs[4] == 0xFFF0
    assert regs[5] == 0xF0F0 ^ 0x0FF0
    assert regs[6] == 0xF0F00
    assert regs[7] == 0xF0F
    assert regs[9] == (-4) & 0xFFFFFFFF


def test_comparisons_signed_unsigned():
    regs = regs_after(
        """
        main:   li   r1, -1
                li   r2, 1
                slt  r3, r1, r2
                sltu r4, r1, r2
                slti r5, r1, 0
                halt
        """
    )
    assert regs[3] == 1  # -1 < 1 signed
    assert regs[4] == 0  # 0xFFFFFFFF > 1 unsigned
    assert regs[5] == 1


def test_r0_is_hardwired_zero():
    regs = regs_after("main: li r0, 55\n      addi r0, r0, 1\n      halt")
    assert regs[0] == 0


def test_memory_byte_and_word_access():
    platform = run_source(
        """
                .text
        main:   la   r1, buf
                li   r2, 0x11223344
                sw   r2, 0(r1)
                lbu  r3, 0(r1)
                lbu  r4, 3(r1)
                li   r5, 0x80
                sb   r5, 1(r1)
                lw   r6, 0(r1)
                lb   r7, 1(r1)
                halt
                .data
        buf:    .space 8
        """
    )
    regs = platform.cores[0].regs
    assert regs[3] == 0x44  # little-endian low byte
    assert regs[4] == 0x11
    assert regs[6] == 0x11228044
    assert regs[7] == 0xFFFFFF80  # lb sign-extends


def test_branches_and_jumps():
    regs = regs_after(
        """
        main:   li   r1, 0
                li   r2, 5
        loop:   addi r1, r1, 1
                blt  r1, r2, loop
                jal  r31, func
                li   r4, 9
                halt
        func:   li   r3, 42
                jr   r31
        """
    )
    assert regs[1] == 5
    assert regs[3] == 42
    assert regs[4] == 9


def test_jalr_indirect_call():
    regs = regs_after(
        """
        main:   la   r1, 0        # will hold instruction index of func
                li   r1, 5        # index of func below (counted by hand)
                jalr r31, r1
                li   r3, 1
                halt
        func:   li   r2, 7
                jr   r31
        """
    )
    assert regs[2] == 7
    assert regs[3] == 1


@settings(max_examples=25, deadline=None)
@given(I32, I32)
def test_add_wraps_like_two_complement(a, b):
    platform = run_source(
        f"""
        main:   li r1, 0x{a & 0xFFFFFFFF:08x}
                li r2, 0x{b & 0xFFFFFFFF:08x}
                add r3, r1, r2
                sub r4, r1, r2
                mul r5, r1, r2
                halt
        """
    )
    regs = platform.cores[0].regs
    assert regs[3] == (a + b) & 0xFFFFFFFF
    assert regs[4] == (a - b) & 0xFFFFFFFF
    assert regs[5] == (a * b) & 0xFFFFFFFF


def test_misaligned_word_access_raises():
    with pytest.raises(ExecutionError):
        run_source(
            """
            main:   li r1, 2
                    lw r2, 0(r1)
                    halt
            """
        )


def test_pc_out_of_range_raises():
    with pytest.raises(ExecutionError):
        run_source("main: j 1000")


def test_cycle_accounting_sums():
    platform = run_source(
        """
        main:   li   r1, 100
        loop:   addi r1, r1, -1
                bgt  r1, r0, loop
                halt
        """
    )
    core = platform.cores[0]
    stats = core.stats()
    # li (one addi) + 100 x (addi + bgt) + halt
    assert stats["instructions"] == 1 + 2 * 100 + 1
    assert stats["cycles"] == stats["active_cycles"] + stats["stall_cycles"]
    assert stats["cpi"] == pytest.approx(stats["cycles"] / stats["instructions"])


def test_idle_accounting():
    platform = run_source("main: halt")
    core = platform.cores[0]
    before = core.cycle
    core.idle_until(before + 50)
    assert core.idle_cycles == 50
    assert core.cycle == before + 50


def test_core_specs_complete():
    from repro.mpsoc import isa

    for name, spec in CORE_SPECS.items():
        assert spec.name == name
        for cls in isa.INSTRUCTION_CLASSES:
            assert spec.cycles_for(cls) >= 1
        assert spec.default_hz > 0


def test_step_on_halted_core_is_noop(platform1):
    core = platform1.cores[0]
    assert core.halted
    assert core.step() == 0


def test_reset_stats(platform1):
    program = assemble("main: addi r1, r0, 1\n      halt")
    platform1.load_program(0, program)
    platform1.cores[0].run()
    platform1.cores[0].reset_stats()
    stats = platform1.cores[0].stats()
    assert stats["instructions"] == 0
    assert stats["active_cycles"] == 0


@pytest.mark.parametrize("budget", [0, -3])
def test_run_until_with_no_budget_executes_nothing(platform1, budget):
    platform1.load_program(0, assemble("""
        main:   li   r1, 1000
        loop:   addi r1, r1, -1
                bne  r1, r0, loop
                halt
    """))
    core = platform1.cores[0]
    assert core.run_until(10**9, 10**9, budget) == 0
    assert (core.pc, core.cycle, core.instructions) == (0, 0, 0)
    assert not core.halted


def test_run_until_runs_past_the_horizon_only_through_private_work(platform1):
    # Two 16-byte I-cache lines: the first fetch of each misses (a sync
    # instruction), every other instruction is private.
    platform1.load_program(0, assemble("""
        main:   li   r1, 3
                addi r2, r2, 1
                addi r2, r2, 1
                addi r2, r2, 1
        loop:   addi r1, r1, -1
                bne  r1, r0, loop
                halt
    """))
    core = platform1.cores[0]
    # The miss at cycle 0 runs (it is at the horizon); the rest of its
    # line runs ahead; the miss on the next line stops the batch.
    assert core.run_until(0, 10**9) == 4
    assert core.run_until(core.cycle - 1, 10**9) == 0
    assert core.run_until(core.cycle, 10**9) == 7
    assert core.halted and core.instructions == 11


@pytest.mark.parametrize("source", ["main: halt", "main: halt\n      div r1, r2, r3"])
def test_execute_on_a_halted_core_raises(platform1, source):
    # Once halted there is no instruction to execute: neither one past
    # the end of the text nor the never-run one after the halt.
    platform1.load_program(0, assemble(source))
    core = platform1.cores[0]
    assert core.execute()[0] == "system"
    assert core.halted
    with pytest.raises(ExecutionError, match="halted"):
        core.execute()


def _fault_snapshot(core):
    memctrl = core.memctrl
    icache = memctrl.icache
    return {
        "pc": core.pc,
        "cycle": core.cycle,
        "active": core.active_cycles,
        "stall": core.stall_cycles,
        "instructions": core.instructions,
        "classes": dict(core.class_counts),
        "loads": memctrl.counters.get("loads"),
        "fetches": memctrl.counters.get("fetches"),
        "icache": None if icache is None else (
            icache.counters.get("accesses"),
            icache.counters.get(ev.CACHE_HIT) + icache.counters.get(ev.CACHE_MISS),
        ),
    }


# A misaligned or unmapped word load at pc ``k``; ``k`` places it at the
# start of an I-cache line (its fetch a cold miss) or inside the first
# one (an inline hit).
_FAULTS = {
    "misaligned": (ExecutionError, "li r1, 2"),
    "unmapped": (AccessFault, "lui r1, 0x7000"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("cached", [True, False])
def test_a_faulting_access_counts_only_its_fetch(fault, k, cached):
    error, setup = _FAULTS[fault]
    source = "\n".join([f"main: {setup}", *["nop"] * (k - 1),
                        "lw r2, 0(r1)", "halt"])
    overrides = {} if cached else {"icache": None, "dcache": None}
    cores = []
    for _ in range(2):
        platform = build_platform(small_config(1, **overrides))
        platform.load_program(0, assemble(source))
        cores.append(platform.cores[0])
    before, faulting = cores
    assert before.run(max_instructions=k) == k
    with pytest.raises(error):
        faulting.run()
    # The core stops at the faulting load, which neither retires nor
    # takes a cycle; its fetch happened and is counted.
    expected = _fault_snapshot(before)
    expected["fetches"] += 1
    if cached:
        expected["icache"] = tuple(count + 1 for count in expected["icache"])
    got = _fault_snapshot(faulting)
    assert got == expected
    assert got["pc"] == k and got["active"] >= 0 and got["stall"] >= 0
    assert got["cycle"] == got["active"] + got["stall"]


def test_execute_of_a_faulting_access_raises_its_fault():
    platform = build_platform(small_config(1, icache=None, dcache=None))
    platform.load_program(0, assemble("main: li r1, 2\n      lw r2, 0(r1)"))
    core = platform.cores[0]
    core.execute()
    with pytest.raises(ExecutionError, match="misaligned"):
        core.execute()
    assert core.pc == 1


class _FaultingDevice:
    def mmio_read(self, offset):
        raise RuntimeError("device fault")

    def mmio_write(self, offset, value):
        raise RuntimeError("device fault")


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("cached", [True, False])
def test_a_faulting_mmio_read_counts_its_fetch_and_load(k, cached):
    # The MMIO read starts (the load is counted, as a sniffer would see
    # it) and its device fails: the load takes no cycle and does not
    # retire; its fetch, counted before the read, stays counted once.
    source = "\n".join(["main: lui r1, 0x2000", *["nop"] * (k - 1),
                        "lw r2, 0(r1)", "halt"])
    overrides = {} if cached else {"icache": None, "dcache": None}
    cores = []
    for _ in range(2):
        platform = build_platform(small_config(1, **overrides))
        platform.mmio.register(_FaultingDevice())
        platform.load_program(0, assemble(source))
        cores.append(platform.cores[0])
    before, faulting = cores
    assert before.run(max_instructions=k) == k
    with pytest.raises(RuntimeError, match="device fault"):
        faulting.run()
    expected = _fault_snapshot(before)
    expected["fetches"] += 1
    expected["loads"] += 1
    if cached:
        expected["icache"] = tuple(count + 1 for count in expected["icache"])
    got = _fault_snapshot(faulting)
    assert got == expected
    assert got["cycle"] == got["active"] + got["stall"]
