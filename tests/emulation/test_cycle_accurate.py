"""Signal-level engine tests: equivalence with the event-driven engine.

The headline integration property: both engines execute the same
workload to the same architectural state, and on single-core private
traffic the cycle counts agree exactly (the fast engine's busy-until
bookkeeping and the signal engine's per-cycle countdowns implement the
same timing rules).
"""

import time

import pytest

from repro.emulation.cycle_accurate import CycleAccurateEngine
from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.noc import generate_custom
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
from repro.workloads.generator import shared_traffic_program
from repro.workloads.matrix import expected_checksum, matrix_programs
from tests.conftest import small_config


def build_pair(num_cores=1, interconnect="bus", noc_factory=None):
    platforms = []
    for _ in range(2):
        noc = noc_factory() if noc_factory else None
        platform = build_platform(
            small_config(num_cores, interconnect=interconnect, noc=noc)
        )
        platform.load_program_all(matrix_programs(num_cores, n=5, iterations=1))
        platforms.append(platform)
    return platforms


def test_single_core_engines_agree_exactly():
    fast_platform, ca_platform = build_pair(1)
    fast = EventDrivenEngine(fast_platform)
    _, fast_cycles = fast.run_to_completion()
    ca = CycleAccurateEngine(ca_platform)
    ca_cycles = ca.run()
    assert fast_cycles == ca_cycles
    assert fast_platform.cores[0].regs == ca_platform.cores[0].regs
    assert fast_platform.cores[0].instructions == ca_platform.cores[0].instructions
    assert fast_platform.icaches[0].stats() == ca_platform.icaches[0].stats()
    assert fast_platform.dcaches[0].stats() == ca_platform.dcaches[0].stats()


def test_multicore_engines_agree_functionally():
    fast_platform, ca_platform = build_pair(2)
    EventDrivenEngine(fast_platform).run_to_completion()
    CycleAccurateEngine(ca_platform).run()
    for i in range(2):
        want = expected_checksum(5, i)
        assert fast_platform.shared_mem.read_word(4 * i) == want
        assert ca_platform.shared_mem.read_word(4 * i) == want
        assert (
            fast_platform.cores[i].instructions
            == ca_platform.cores[i].instructions
        )


def test_multicore_cycle_counts_close():
    """Contention interleaving may differ slightly between engines, but
    total cycles must agree within a few percent."""
    fast_platform, ca_platform = build_pair(4)
    _, fast_cycles = EventDrivenEngine(fast_platform).run_to_completion()
    ca_cycles = CycleAccurateEngine(ca_platform).run()
    assert ca_cycles == pytest.approx(fast_cycles, rel=0.05)


def test_noc_cycle_accurate_delivers_everything():
    fast_platform, ca_platform = build_pair(
        2, interconnect="noc", noc_factory=lambda: generate_custom("n", 2, ring=False)
    )
    EventDrivenEngine(fast_platform).run_to_completion()
    ca = CycleAccurateEngine(ca_platform)
    ca.run()
    for i in range(2):
        want = expected_checksum(5, i)
        assert ca_platform.shared_mem.read_word(4 * i) == want
    # Flit accounting matches between the engines (same OCP stream).
    fast_flits = fast_platform.interconnect.stats()["flits"]
    ca_flits = ca_platform.interconnect.stats()["flits"]
    assert fast_flits == ca_flits


def test_evaluations_grow_with_system_size():
    """The signal engine's cost driver: evaluations ~ cycles x components."""
    small_platform, _ = build_pair(1)
    big_platform, _ = build_pair(4)
    small_engine = CycleAccurateEngine(small_platform)
    big_engine = CycleAccurateEngine(big_platform)
    small_engine.run()
    big_engine.run()
    small_rate = small_engine.evaluations / small_engine.cycle
    big_rate = big_engine.evaluations / big_engine.cycle
    assert big_rate > small_rate * 1.5  # more components per cycle


def test_signal_engine_is_slower_in_wall_clock():
    """The measured Table 3 effect, in miniature: evaluating every
    component every cycle costs more host time per simulated cycle."""
    import time

    fast_platform, ca_platform = build_pair(2)
    t0 = time.perf_counter()
    _, fast_cycles = EventDrivenEngine(fast_platform).run_to_completion()
    fast_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    ca_cycles = CycleAccurateEngine(ca_platform).run()
    ca_wall = time.perf_counter() - t0
    fast_rate = fast_cycles / fast_wall
    ca_rate = ca_cycles / ca_wall
    assert fast_rate > ca_rate  # the emulator-style engine is faster


def engine_rate(engine_kind, shared_mem_latency):
    """Platform cycles per host second of a 2-core shared-traffic run."""
    platform = build_platform(
        MPSoCConfig(
            name="sw",
            cores=[CoreConfig(f"cpu{i}") for i in range(2)],
            shared_mem_latency=shared_mem_latency,
        )
    )
    platform.load_program_all(
        [shared_traffic_program(i, num_words=128, iterations=2) for i in range(2)]
    )
    start = time.perf_counter()
    if engine_kind == "event":
        _, cycles = EventDrivenEngine(platform).run_to_completion()
    else:
        cycles = CycleAccurateEngine(platform).run()
    return cycles / (time.perf_counter() - start)


def test_table3_measured_engine_gap_widens_with_stalls():
    """The measured Table 3 shape: an emulator never pays for idle
    signals, a cycle-accurate simulator evaluates every component every
    cycle.  Raising the shared-memory latency raises the stall fraction,
    so the event-driven engine's advantage over the signal-level engine
    widens."""
    ratios = []
    for latency in (2, 10, 40):
        fast_rate = engine_rate("event", latency)
        signal_rate = engine_rate("signal", latency)
        assert fast_rate > signal_rate, f"latency {latency}"
        ratios.append(fast_rate / signal_rate)
    assert ratios[-1] > ratios[0]
