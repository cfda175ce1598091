"""Signal-level engine edge cases beyond the equivalence tests."""

import pytest

from repro.emulation.cycle_accurate import CycleAccurateEngine
from repro.mpsoc.asm import assemble
from repro.mpsoc.platform import MMIO_BASE, SHARED_BASE, build_platform
from tests.conftest import small_config


def run_ca(source, num_cores=1, **cfg):
    platform = build_platform(small_config(num_cores, **cfg))
    program = assemble(source)
    for index in range(num_cores):
        platform.load_program(index, program)
    engine = CycleAccurateEngine(platform)
    engine.run()
    return platform, engine


def test_budget_guard():
    platform = build_platform(small_config(1))
    platform.load_program(0, assemble("main: j 0"))  # infinite loop
    engine = CycleAccurateEngine(platform)
    with pytest.raises(RuntimeError, match="budget"):
        engine.run(max_cycles=500)


def test_mmio_access_through_ca_engine():
    platform, _ = run_ca(
        f"""
        main:   li  r1, 0x{MMIO_BASE:08x}
                lw  r2, 4(r1)      # sniffer kind register (unmapped: 0)
                sw  r2, 0(r1)
                halt
        """
    )
    assert platform.cores[0].halted


def test_uncached_platform_runs():
    platform, engine = run_ca(
        "main: li r1, 5\nloop: addi r1, r1, -1\n      bgt r1, r0, loop\n      halt",
        icache=None,
        dcache=None,
    )
    assert platform.cores[0].regs[1] == 0
    assert engine.cycle > 0


def test_tdma_bus_under_ca_engine():
    from repro.mpsoc.bus import ARB_TDMA, BusConfig

    source = f"""
        main:   li   r1, 0x{SHARED_BASE:08x}
                li   r2, 10
        loop:   lw   r3, 0(r1)
                addi r2, r2, -1
                bgt  r2, r0, loop
                halt
    """
    platform, engine = run_ca(
        source,
        num_cores=2,
        bus=BusConfig(name="t", arbitration=ARB_TDMA, tdma_slot_cycles=4),
    )
    assert all(core.halted for core in platform.cores)
    # TDMA slots idle: somebody waited.
    waits = platform.interconnect.per_master_wait
    assert sum(waits.values()) > 0


def test_write_back_caches_under_ca_engine():
    from repro.mpsoc.cache import WRITE_BACK, CacheConfig

    source = """
        main:   li   r1, 0
                li   r2, 64
        loop:   sw   r2, 0(r1)
                addi r1, r1, 64     # walk conflicting lines
                addi r2, r2, -1
                bgt  r2, r0, loop
                halt
    """
    platform, _ = run_ca(
        source,
        dcache=CacheConfig(
            name="d", size=256, line_size=16, write_policy=WRITE_BACK
        ),
        private_mem_size=16 * 1024,
    )
    stats = platform.dcaches[0].stats()
    assert stats["writebacks"] > 0


def test_evaluations_counter_matches_cycles_times_components():
    platform, engine = run_ca("main: li r1, 3\n      halt")
    components = sum(1 for _ in platform.components())
    assert engine.evaluations == engine.cycle * components
