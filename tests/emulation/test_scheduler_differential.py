"""Differential check of the event-driven engine's schedule.

``EventDrivenEngine`` lets each core run ahead through core-private
instructions and orders only the sync instructions (shared, MMIO and
uncached accesses, cache misses).  That must be indistinguishable from
the one-at-a-time order of ``run_stepwise``: on seeded random platforms
(2-4 cores, bus or NoC, cache geometries and write policies, physical
latency penalties that make the VPCM freeze), random programs mixing ALU
runs, private and shared loads/stores and MMIO reads of any core's live
counters, identical programs on several cores (same-cycle ties) and
random short windows, every observable must match: ``platform.stats()``,
shared and private memory bytes (the programs log what their MMIO reads
returned), VPCM freeze totals and the core registers.
"""

import random

import pytest

from repro.core.sniffers import REG_SELECT, REG_VALUE, SnifferBank
from repro.core.vpcm import Vpcm
from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.asm import assemble
from repro.mpsoc.bus import ARB_FIXED_PRIORITY, ARB_ROUND_ROBIN, ARB_TDMA, BusConfig
from repro.mpsoc.cache import WRITE_BACK, WRITE_THROUGH, CacheConfig
from repro.mpsoc.noc import generate_custom
from repro.mpsoc.platform import (
    MMIO_BASE,
    SHARED_BASE,
    CoreConfig,
    MPSoCConfig,
    build_platform,
)
from repro.util.units import KB
from repro.workloads.dithering import dithering_programs, load_images
from repro.workloads.matrix import matrix_programs
from tests.emulation.test_interpreter_coherence import run_stepwise, stats_json

SHARED_WORDS = 16  # a small shared region, so cores race on its words
ALU_OPS = ["add", "sub", "xor", "or", "and", "sll", "srl", "slt", "mul"]


def random_config(rng, num_cores):
    def cache(name, write_policy=WRITE_THROUGH):
        line = rng.choice([8, 16, 32])
        assoc = rng.choice([1, 2, 4])
        return CacheConfig(
            name=name, size=line * assoc * rng.choice([2, 4, 8]), line_size=line,
            assoc=assoc, hit_latency=rng.choice([1, 2]), write_policy=write_policy,
        )

    interconnect = rng.choice(["bus", "noc"])
    return MPSoCConfig(
        name="diff",
        cores=[CoreConfig(f"cpu{i}", spec=rng.choice(["microblaze", "arm7"]))
               for i in range(num_cores)],
        icache=cache("i"),
        dcache=cache("d", rng.choice([WRITE_THROUGH, WRITE_BACK])),
        private_mem_size=16 * KB,
        private_mem_physical_latency=rng.choice([None, 3]),
        shared_mem_size=64 * KB,
        shared_mem_physical_latency=rng.choice([None, 5]),
        interconnect=interconnect,
        bus=BusConfig(name="bus", arbitration=rng.choice(
            [ARB_FIXED_PRIORITY, ARB_ROUND_ROBIN, ARB_TDMA])),
        noc=(generate_custom("noc", rng.randint(1, 3))
             if interconnect == "noc" else None),
    )


def random_program(rng, sniffer_regs):
    """A loop over a random body; every MMIO read is logged to ``out``."""
    rounds = rng.randint(2, 6)
    buf_bytes = 4 * rng.randint(8, 96)
    body, reads = [], 0
    for slot in range(rng.randint(6, 20)):
        kind = rng.choices(["alu", "spin", "private", "shared", "mmio"],
                           weights=[6, 1, 5, 3, 1])[0]
        d, a, b = (rng.randint(1, 5) for _ in range(3))
        if kind == "alu" and rng.random() < 0.4:
            body.append(f"addi r{d}, r{a}, {rng.randint(-50, 50)}")
        elif kind == "alu":
            body.append(f"{rng.choice(ALU_OPS)} r{d}, r{a}, r{b}")
        elif kind == "spin":  # a private inner loop
            body += [f"        li   r10, {rng.randint(1, 12)}",
                     f"spin{slot}: addi r10, r10, -1",
                     f"        bne  r10, r0, spin{slot}"]
        elif kind in ("private", "shared"):
            base, span = (("r9", buf_bytes) if kind == "private"
                          else ("r8", 4 * SHARED_WORDS))
            op = rng.choice(["lw", "sw", "lbu", "sb", "lb"])
            off = rng.randrange(0, span, 4 if op in ("lw", "sw") else 1)
            body.append(f"{op} r{d}, {off}({base})")
        else:
            select, value, count = rng.choice(sniffer_regs)
            body += [f"li r3, {select}", f"li r4, {rng.randrange(count)}",
                     "sw r4, 0(r3)", f"li r3, {value}", "lw r5, 0(r3)",
                     "sw r5, 0(r6)", "addi r6, r6, 4"]
            reads += 1
    lines = ["main:   la   r6, out", "        la   r9, buf",
             f"        li   r8, {SHARED_BASE}", f"        li   r7, {rounds}", "loop:"]
    lines += [line if line.startswith(("spin", "        ")) else f"        {line}"
              for line in body]
    lines += ["        addi r7, r7, -1", "        bne  r7, r0, loop", "        halt",
              ".data", f"out:    .space {4 * reads * rounds + 4}",
              f"buf:    .space {buf_bytes}"]
    return assemble("\n".join(lines)), reads


def random_platform(seed):
    """A platform, its VPCM and what its programs do, all drawn from
    ``seed``."""
    rng = random.Random(seed)
    platform = build_platform(random_config(rng, rng.randint(2, 4)))
    vpcm = Vpcm().attach_platform(platform)
    bank = SnifferBank.from_platform(platform)
    sniffer_regs = [
        (MMIO_BASE + bank.mmio_offsets[s.name] + REG_SELECT,
         MMIO_BASE + bank.mmio_offsets[s.name] + REG_VALUE,
         len(s.counter_names()))
        for s in bank.count_sniffers()
    ]
    # Identical programs on every core half the time: same-cycle ties.
    identical = rng.random() < 0.5
    if identical:
        drawn = [random_program(rng, sniffer_regs)] * len(platform.cores)
    else:
        drawn = [random_program(rng, sniffer_regs) for _ in platform.cores]
    platform.load_program_all([program for program, _ in drawn])
    return platform, vpcm, {"identical": identical,
                            "reads": sum(reads for _, reads in drawn)}


def workload_platform(seed):
    """MATRIX or DITHERING on a random platform."""
    rng = random.Random(seed)
    num_cores = rng.choice([2, 4])
    platform = build_platform(random_config(rng, num_cores))
    vpcm = Vpcm().attach_platform(platform)
    if rng.random() < 0.5:
        programs = matrix_programs(num_cores, n=rng.choice([3, 4]), iterations=1)
    else:
        programs = dithering_programs(num_cores, width=8, height=4, num_images=1)
        load_images(platform, width=8, height=4, num_images=1)
    platform.load_program_all(programs)
    return platform, vpcm, {}


def windows(seed):
    """Random short windows: the first few ``until`` cycles, then more."""
    rng = random.Random(seed)
    until = 0
    while True:
        until += rng.choice([rng.randint(1, 40), rng.randint(40, 1500)])
        yield until


def run_engine(platform, seed):
    engine = EventDrivenEngine(platform)
    for until in windows(seed):
        engine.run_window(until)
        if engine.all_halted:
            return


def run_oracle(platform, seed):
    for until in windows(seed):
        run_stepwise(platform, until)
        for core in platform.cores:  # ``idle_to_boundary``
            if core.halted and core.cycle < until:
                core.idle_until(until)
        if all(core.halted for core in platform.cores):
            return


def observed(platform, vpcm):
    return {
        "stats": stats_json(platform),
        "shared": bytes(platform.shared_mem.data),
        "private": [bytes(memory.data) for memory in platform.private_mems],
        "freezes": dict(vpcm.freezes),
        "regs": [(core.pc, list(core.regs)) for core in platform.cores],
    }


@pytest.mark.parametrize("make, seeds", [
    (random_platform, range(48)),
    (workload_platform, range(1000, 1012)),
], ids=["random-programs", "matrix-dithering"])
def test_engine_matches_one_instruction_at_a_time(make, seeds):
    for seed in seeds:
        engine_platform, engine_vpcm, _ = make(seed)
        run_engine(engine_platform, seed)
        oracle_platform, oracle_vpcm, _ = make(seed)
        run_oracle(oracle_platform, seed)
        assert observed(engine_platform, engine_vpcm) == observed(
            oracle_platform, oracle_vpcm
        ), f"seed {seed}"


def test_random_cases_cover_ties_mmio_reads_and_freezes():
    cases = [random_platform(seed) for seed in range(48)]
    for (platform, _, _), seed in zip(cases, range(48)):
        run_engine(platform, seed)
    assert sum(info["identical"] for _, _, info in cases) >= 12
    assert sum(info["reads"] > 0 for _, _, info in cases) >= 12
    assert sum(bool(vpcm.freezes) for _, vpcm, _ in cases) >= 12
