"""Seeded fuzz test for the timed ISA interpreter.

Random (but reproducible) straight-line instruction streams run on every
registered :class:`CoreSpec`; the expected cycle accounting is derived
from the assembled program itself, so the test checks the interpreter's
timing invariants against the spec's own CPI table:

* ``active + stall + idle == total elapsed cycles`` — the Section 4.1
  three-mode split is exhaustive and disjoint;
* with no caches and 1-cycle private memory there is nothing to stall
  on: ``stall == 0`` and every instruction charges exactly
  ``CPI[class] + fetch`` (+1 for a load/store data access);
* per-class instruction counts match the stream.
"""

import random

import pytest

from repro.mpsoc.asm import assemble
from repro.mpsoc.isa import CLASS_LOAD, CLASS_STORE, decode
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, Platform
from repro.mpsoc.processor import CORE_SPECS
from repro.util.units import KB

#: Generator opcode pools.  Divisors read only the preloaded, never
#: written registers r1..r5, so div/rem never fault; branches target the
#: next instruction, so any outcome is safe in a straight line.
ALU_R = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu")
ALU_I = ("addi", "slti", "andi", "ori", "xori")
MULDIV = ("mul", "div", "rem")
BRANCHES = ("beq", "bne", "blt", "bge")
SAFE_SOURCES = tuple(range(1, 26))
DEST_REGS = tuple(range(10, 26))
DIV_SOURCES = tuple(range(1, 6))

DATA_BASE = 0x2000  # inside private memory, far above the text segment


def fuzz_source(rng, length):
    """One straight-line program of ``length`` random instructions."""
    lines = ["        .text", "main:"]
    # Prologue: nonzero divisors in r1..r5, the data base in r6.
    for reg in DIV_SOURCES:
        lines.append(f"        li   r{reg}, {rng.randint(1, 1000)}")
    lines.append(f"        li   r6, {DATA_BASE}")
    for k in range(length):
        kind = rng.random()
        rd = rng.choice(DEST_REGS)
        rs1 = rng.choice(SAFE_SOURCES)
        rs2 = rng.choice(SAFE_SOURCES)
        if kind < 0.40:
            op = rng.choice(ALU_R)
            lines.append(f"        {op}  r{rd}, r{rs1}, r{rs2}")
        elif kind < 0.55:
            op = rng.choice(ALU_I)
            lines.append(f"        {op} r{rd}, r{rs1}, {rng.randint(0, 255)}")
        elif kind < 0.65:
            op = rng.choice(MULDIV)
            divisor = rng.choice(DIV_SOURCES)
            lines.append(f"        {op}  r{rd}, r{rs1}, r{divisor}")
        elif kind < 0.75:
            op = rng.choice(("lw", "lb", "lbu"))
            offset = 4 * rng.randint(0, 15)
            lines.append(f"        {op}   r{rd}, {offset}(r6)")
        elif kind < 0.85:
            op = rng.choice(("sw", "sb"))
            offset = 4 * rng.randint(0, 15)
            lines.append(f"        {op}   r{rs1}, {offset}(r6)")
        elif kind < 0.95:
            op = rng.choice(BRANCHES)
            lines.append(f"        {op}  r{rs1}, r{rs2}, next{k}")
            lines.append(f"next{k}:")
        else:
            lines.append(f"        j    next{k}")
            lines.append(f"next{k}:")
    lines.append("        halt")
    return "\n".join(lines) + "\n"


def cacheless_core(spec_name):
    config = MPSoCConfig(
        name=f"fuzz_{spec_name}",
        cores=[CoreConfig("cpu0", spec=spec_name)],
        private_mem_size=16 * KB,
        shared_mem_size=16 * KB,
    )
    assert config.icache is None and config.dcache is None
    return Platform(config).cores[0]


def expected_accounting(program, spec):
    """Timing the interpreter must report for a straight-line program on
    a cache-less core with 1-cycle private memory."""
    cpi_total = 0
    mem_accesses = 0
    counts = {}
    decoded = [decode(word) for word in program.code]
    for instr in decoded:
        cpi_total += spec.cpi[instr.cls]
        counts[instr.cls] = counts.get(instr.cls, 0) + 1
        if instr.cls in (CLASS_LOAD, CLASS_STORE):
            mem_accesses += 1
    instructions = len(decoded)
    active = cpi_total + instructions + mem_accesses
    return instructions, counts, active


SEEDS = (11, 23, 47)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec_name", sorted(CORE_SPECS))
def test_fuzzed_stream_cycle_accounting(spec_name, seed):
    rng = random.Random(f"{spec_name}-{seed}")
    program = assemble(fuzz_source(rng, length=200))
    spec = CORE_SPECS[spec_name]
    core = cacheless_core(spec_name)
    core.load_program(program)

    executed = core.run()
    assert core.state == "halted"

    instructions, counts, active = expected_accounting(program, spec)
    # Straight-line code: every assembled instruction executes exactly once.
    assert executed == instructions
    assert core.instructions == instructions
    assert dict(core.class_counts) == counts

    # CPI charges follow the spec's class table, fetch included.
    assert core.active_cycles == active
    # Nothing to stall on: no caches, 1-cycle private memory.
    assert core.stall_cycles == 0
    assert core.idle_cycles == 0
    # The three-mode split is exhaustive.
    assert core.active_cycles + core.stall_cycles + core.idle_cycles == core.cycle


@pytest.mark.parametrize("spec_name", sorted(CORE_SPECS))
def test_idle_accounting_after_halt(spec_name):
    rng = random.Random(spec_name)
    core = cacheless_core(spec_name)
    core.load_program(assemble(fuzz_source(rng, length=50)))
    core.run()
    halted_at = core.cycle
    core.idle_until(halted_at + 777)
    assert core.idle_cycles == 777
    assert core.active_cycles + core.stall_cycles + core.idle_cycles == core.cycle


def test_fuzz_is_reproducible():
    a = fuzz_source(random.Random("x"), 100)
    b = fuzz_source(random.Random("x"), 100)
    assert a == b


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_run_is_deterministic(seed):
    def run():
        core = cacheless_core("microblaze")
        core.load_program(
            assemble(fuzz_source(random.Random(seed), length=150))
        )
        core.run()
        return core.cycle, core.instructions, list(core.regs)

    assert run() == run()
