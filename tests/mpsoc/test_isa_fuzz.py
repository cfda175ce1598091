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
from repro.mpsoc.cache import WRITE_BACK, CacheConfig
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


# -- control flow, against an independent reference ---------------------------
# Seeded programs with a backward loop, forward branches (taken or not,
# crossing I-cache lines), direct and indirect calls whose returns land
# inside straight-line code, sign-extending byte loads and the division
# corner cases.  Their final registers, private memory and per-class
# counts must equal those of ``reference_run``, a direct executor built
# on ``isa.decode`` and nothing of the interpreter.
MASK = 0xFFFFFFFF
# r1 INT_MIN, r2 -1, r3 0, r4 a divisor, r5 the data base, r6 -7, r7 2:
# never written.  r9 holds call targets, r26 the loop count, r31 the
# return address.
CF_DEST = tuple(range(10, 26))
CF_SOURCES = tuple(range(1, 26))
CF_FUNCTIONS = 3


def control_flow_source(rng):
    """One program; every line is exactly one instruction or a label."""
    lines, pcs = [], {}

    def emit(text):
        lines.append(f"        {text}")

    def label(name):
        lines.append(f"{name}:")

    def alu():
        rd, a, b = (rng.choice(CF_DEST), rng.choice(CF_SOURCES),
                    rng.choice(CF_SOURCES))
        kind = rng.random()
        if kind < 0.6:
            emit(f"{rng.choice(ALU_R)} r{rd}, r{a}, r{b}")
        elif kind < 0.8:
            emit(f"{rng.choice(ALU_I)} r{rd}, r{a}, {rng.randint(0, 255)}")
        else:
            emit(f"{rng.choice(('slli', 'srli', 'srai'))} r{rd}, r{a}, "
                 f"{rng.randint(0, 31)}")

    # Each function skips ``skip`` instructions after its call site.
    skips = [rng.randint(0, 2) for _ in range(CF_FUNCTIONS)]
    emit("lui  r1, 0x8000")
    emit("addi r2, r0, -1")
    emit("addi r3, r0, 0")
    emit(f"addi r4, r0, {rng.randint(1, 999)}")
    emit(f"addi r5, r0, {DATA_BASE}")
    for reg in CF_DEST:
        emit(f"addi r{reg}, r0, {rng.randint(-3000, 3000)}")
    for offset in range(0, 64, 4):  # the data words, about half negative
        emit(f"sw   r{rng.choice(CF_DEST)}, {offset}(r5)")
    # The corner cases once for sure, kept where the random stores
    # (offsets 0-63) cannot overwrite them: INT_MIN / -1, x / 0, a
    # negative quotient that truncates and a sign-extended byte.
    emit("addi r6, r0, -7")
    emit("addi r7, r0, 2")
    corners = ["div  r10, r1, r2", "rem  r10, r1, r2", "div  r10, r4, r3",
               "rem  r10, r4, r3", "div  r10, r6, r7", "rem  r10, r6, r7",
               "lb   r10, 62(r5)"]
    emit("sw   r2, 60(r5)")
    for offset, line in enumerate(corners):
        emit(line)
        emit(f"sw   r10, {64 + 4 * offset}(r5)")
    emit(f"addi r26, r0, {rng.randint(2, 4)}")
    label("loop")
    for k in range(rng.randint(10, 18)):
        kind = rng.random()
        if kind < 0.35:
            alu()
        elif kind < 0.45:
            rd, a = rng.choice(CF_DEST), rng.choice(CF_SOURCES)
            # Division by zero, INT_MIN / -1 or a plain divisor.
            a, b = rng.choice(((a, 3), (1, 2), (a, 4), (a, 2)))
            emit(f"{rng.choice(MULDIV)} r{rd}, r{a}, r{b}")
        elif kind < 0.60:
            offset = rng.randint(0, 63)
            op = rng.choice(("lb", "lbu", "sb", "lw", "sw"))
            if op in ("lw", "sw"):
                offset &= ~3
            reg = rng.choice(CF_SOURCES if op[0] == "s" else CF_DEST)
            emit(f"{op}   r{reg}, {offset}(r5)")
        elif kind < 0.80:
            a, b = rng.choice(CF_SOURCES), rng.choice(CF_SOURCES)
            emit(f"{rng.choice(BRANCHES + ('bltu', 'bgeu'))} r{a}, r{b}, skip{k}")
            for _ in range(rng.randint(1, 6)):
                alu()
            label(f"skip{k}")
        else:
            target = rng.randrange(CF_FUNCTIONS)
            if rng.random() < 0.5:
                emit(f"jal  r31, f{target}")
            else:
                emit(f"addi r9, r0, @f{target}")
                emit("jalr r31, r9")
            for _ in range(skips[target]):
                alu()  # skipped: the return lands after them
    emit("addi r26, r26, -1")
    emit("bne  r26, r0, loop")
    emit("halt")
    for index, skip in enumerate(skips):
        label(f"f{index}")
        for _ in range(rng.randint(1, 4)):
            alu()
        emit(f"addi r31, r31, {skip}")  # r31 holds the return pc
        emit("jr   r31")
    # ``@label`` is the label's instruction index (jalr takes a pc).
    index = 0
    for line in lines:
        if line.endswith(":"):
            pcs[line[:-1]] = index
        else:
            index += 1
    source = "\n".join(lines)
    for name, pc in pcs.items():
        source = source.replace(f"@{name}\n", f"{pc}\n")
    return "        .text\nmain:\n" + source + "\n"


def _signed(word):
    return word - (1 << 32) if word & 0x80000000 else word


def reference_run(program, memory_size, max_steps=20_000):
    """Run ``program`` directly from its decoded words: registers,
    private memory and per-class counts at its halt."""
    mem = bytearray(memory_size)
    for index, word in enumerate(program.code):
        at = program.text_base + 4 * index
        mem[at:at + 4] = word.to_bytes(4, "little")
    mem[program.data_base:program.data_base + len(program.data)] = program.data
    regs, pc, counts = [0] * 32, program.entry, {}
    code = [decode(word) for word in program.code]
    for _ in range(max_steps):
        ins = code[pc]
        op, rd, a, b, imm = ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm
        counts[ins.cls] = counts.get(ins.cls, 0) + 1
        x, y = regs[a], regs[b]
        value, next_pc = None, pc + 1
        if op in ("add", "addi", "sub"):
            value = x - y if op == "sub" else x + (y if op == "add" else imm)
        elif op in ("and", "or", "xor"):
            value = {"and": x & y, "or": x | y, "xor": x ^ y}[op]
        elif op in ("andi", "ori", "xori"):
            value = {"andi": x & imm, "ori": x | imm, "xori": x ^ imm}[op]
        elif op in ("sll", "srl", "sra", "slli", "srli", "srai"):
            shift = (imm if op.endswith("i") else y) & 31
            if op.startswith("sll"):
                value = x << shift
            elif op.startswith("srl"):
                value = x >> shift
            else:
                value = _signed(x) >> shift
        elif op in ("slt", "slti", "sltu"):
            other = imm if op == "slti" else y
            if op == "sltu":
                value = int(x < y)
            else:
                value = int(_signed(x) < (other if op == "slti" else _signed(y)))
        elif op == "lui":
            value = imm << 16
        elif op in ("mul", "div", "rem"):
            p, q = _signed(x), _signed(y)
            if op == "mul":
                value = p * q
            elif q == 0:
                value = -1 if op == "div" else p
            else:
                quotient = abs(p) // abs(q) * (1 if (p < 0) == (q < 0) else -1)
                value = quotient if op == "div" else p - quotient * q
        elif op in ("lw", "lb", "lbu", "sw", "sb"):
            addr = (x + imm) & MASK
            if op == "lw":
                value = int.from_bytes(mem[addr:addr + 4], "little")
            elif op == "lbu":
                value = mem[addr]
            elif op == "lb":
                value = mem[addr] - 256 if mem[addr] & 0x80 else mem[addr]
            elif op == "sw":
                mem[addr:addr + 4] = regs[rd].to_bytes(4, "little")
            else:
                mem[addr] = regs[rd] & 0xFF
        elif op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            x, y = regs[a], regs[b]
            taken = {"beq": x == y, "bne": x != y,
                     "blt": _signed(x) < _signed(y), "bge": _signed(x) >= _signed(y),
                     "bltu": x < y, "bgeu": x >= y}[op]
            next_pc = pc + 1 + imm if taken else pc + 1
        elif op in ("j", "jal"):
            value, next_pc = (pc + 1 if op == "jal" else None), imm
        elif op in ("jr", "jalr"):
            value, next_pc = (pc + 1 if op == "jalr" else None), x
        elif op == "halt":
            return regs, mem, counts
        if value is not None and rd and op not in ("sw", "sb"):
            regs[rd] = value & MASK
        pc = next_pc
    raise AssertionError("reference run did not halt")


CF_SEEDS = range(12)


def cacheless_platform():
    return Platform(MPSoCConfig(
        name="fuzz_cacheless", cores=[CoreConfig("cpu0")],
        private_mem_size=16 * KB, shared_mem_size=16 * KB,
    ))


def cached_platform():
    """Small caches (a few sets) with a write-back D-cache, so lines
    conflict and the inline hit paths and their misses both run."""
    return Platform(MPSoCConfig(
        name="fuzz_cached",
        cores=[CoreConfig("cpu0")],
        icache=CacheConfig(name="i", size=256, line_size=16),
        dcache=CacheConfig(name="d", size=256, line_size=16, assoc=2,
                           write_policy=WRITE_BACK),
        private_mem_size=16 * KB,
        shared_mem_size=16 * KB,
    ))


@pytest.mark.parametrize("mode", ["blocks", "steps", "cacheless"])
@pytest.mark.parametrize("seed", CF_SEEDS)
def test_control_flow_matches_the_reference_executor(seed, mode):
    program = assemble(control_flow_source(random.Random(f"cf-{seed}")))
    platform = cacheless_platform() if mode == "cacheless" else cached_platform()
    platform.load_program(0, program)
    core, memory = platform.cores[0], platform.private_mems[0]
    if mode == "steps":
        for _ in range(20_000):
            if core.halted:
                break
            core.step()
    else:
        core.run(max_instructions=20_000)
    assert core.halted
    regs, mem, counts = reference_run(program, memory.config.size)
    assert core.regs == regs
    assert bytes(memory.data) == bytes(mem)
    assert {k: v for k, v in core.class_counts.items() if v} == counts
