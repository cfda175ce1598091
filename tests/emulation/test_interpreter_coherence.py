"""Coherence of the interpreter's fast paths with one-at-a-time execution.

The event-driven engine runs each core in batches (``run_until``) that
resolve I-/D-cache hits inline and keep the counters they bump in local
variables.  Everything outside a batch must not be able to tell: a
program reading live counters through a sniffer's MMIO registers, an
event-logging sniffer on a cache, and a calibration run that snapshots
and restores the platform must all see exactly what they would see if
every instruction were its own batch (``Processor.step``).
"""

import hashlib
import heapq
import json

import pytest

from repro.core.framework import FrameworkConfig
from repro.core.sniffers import REG_SELECT, REG_VALUE, SnifferBank
from repro.emulation.engine import EventDrivenEngine
from repro.emulation.windowed import WindowedCalibration
from repro.mpsoc.asm import assemble
from repro.mpsoc.platform import MMIO_BASE, SHARED_BASE, build_platform
from repro.scenario.presets import PRESETS
from tests.conftest import small_config


def run_stepwise(platform, until_cycle):
    """The engine's schedule with every instruction a batch of its own:
    run the globally earliest core while it stays the earliest."""
    heap = [(core.cycle, index, core) for index, core in enumerate(platform.cores)
            if not core.halted and core.cycle < until_cycle]
    heapq.heapify(heap)
    while heap:
        _, index, core = heapq.heappop(heap)
        horizon = min(until_cycle, heap[0][0] if heap else until_cycle)
        while core.cycle <= horizon and core.cycle < until_cycle and not core.halted:
            core.step()
        if not core.halted and core.cycle < until_cycle:
            heapq.heappush(heap, (core.cycle, index, core))


def run_batched(platform, until_cycle):
    EventDrivenEngine(platform).run_window(until_cycle, idle_to_boundary=False)


def _string_keyed(value):
    if not isinstance(value, dict):
        return value
    return {
        "->".join(map(str, k)) if isinstance(k, tuple) else str(k):
            _string_keyed(v)
        for k, v in value.items()
    }


def stats_json(platform):
    return json.dumps(_string_keyed(platform.stats()), sort_keys=True)


# -- MMIO reads of live counters ----------------------------------------------
ROUNDS = 12

# (component, counter) pairs the programs read through their sniffers:
# the deferred fetch/load/store and cache-hit counters of core 0, and
# the core's own accounting.
WATCHED = [
    ("cpu0.memctrl", "fetches"),
    ("cpu0.memctrl", "loads"),
    ("cpu0.memctrl", "stores"),
    ("cpu0.icache", "accesses"),
    ("cpu0.icache", "hits"),
    ("cpu0.dcache", "accesses"),
    ("cpu0.dcache", "hits"),
    ("cpu0", "instructions"),
    ("cpu0", "active_cycles"),
    ("cpu1.memctrl", "fetches"),
]


def reader_program(reads, work):
    """Each round: ``work`` ALU/private/shared accesses, then one MMIO
    select + read per ``reads`` entry, logged to an ``out`` array."""
    lines = ["main:   la   r6, out", f"        li   r7, {ROUNDS}",
             f"        li   r8, {SHARED_BASE}", "loop:"]
    for _ in range(work):
        lines += ["        addi r1, r1, 3", "        sw   r1, 0(r6)",
                  "        lw   r2, 0(r6)", "        lw   r9, 0(r8)"]
    for select_addr, value_addr, index in reads:
        lines += [f"        li   r3, {select_addr}", f"        li   r4, {index}",
                  "        sw   r4, 0(r3)", f"        li   r3, {value_addr}",
                  "        lw   r5, 0(r3)", "        sw   r5, 0(r6)",
                  "        addi r6, r6, 4"]
    lines += ["        addi r7, r7, -1", "        bne  r7, r0, loop",
              "        halt", ".data", f"out:    .space {4 * len(reads) * ROUNDS + 4}"]
    return assemble("\n".join(lines))


def mmio_platform():
    platform = build_platform(small_config(2))
    bank = SnifferBank.from_platform(platform)
    by_name = {s.name: s for s in bank.count_sniffers()}
    reads = []
    for component, counter in WATCHED:
        sniffer = by_name[f"{component}.cnt"]
        base = MMIO_BASE + bank.mmio_offsets[sniffer.name]
        reads.append((base + REG_SELECT, base + REG_VALUE,
                      sniffer.counter_names().index(counter)))
    programs = [reader_program(reads, work=3), reader_program(reads[::-1], work=1)]
    for index, program in enumerate(programs):
        platform.load_program(index, program)
    return platform, programs


def out_words(platform, programs):
    """Each core's ``out`` array (the first, so lowest, data symbol)."""
    words = len(WATCHED) * ROUNDS
    return [
        [memory.read_word(program.data_base + 4 * i) for i in range(words)]
        for memory, program in zip(platform.private_mems, programs)
    ]


def test_mmio_counter_reads_match_one_instruction_batches():
    batched, programs = mmio_platform()
    run_batched(batched, 10**9)
    stepped, _ = mmio_platform()
    run_stepwise(stepped, 10**9)
    assert all(core.halted for core in batched.cores)
    logged = out_words(batched, programs)
    assert logged == out_words(stepped, programs)
    # The reads observed live, growing counters (not a stale zero).
    assert logged[0][0] > 0 and logged[0][len(WATCHED)] > logged[0][0]
    assert stats_json(batched) == stats_json(stepped)


# -- event-logging sniffers ----------------------------------------------------
def hooked_platform(event_logging):
    platform = build_platform(small_config(2))
    bank = SnifferBank.from_platform(platform, event_logging=event_logging)
    source = f"""
        main:   li   r7, 40
                li   r8, {SHARED_BASE}
                la   r6, buf
        loop:   lw   r1, 0(r6)
                addi r1, r1, 1
                sw   r1, 0(r6)
                lw   r2, 0(r8)
                addi r7, r7, -1
                bne  r7, r0, loop
                halt
        .data
        buf:    .space 16
    """
    for index in range(2):
        platform.load_program(index, assemble(source))
    return platform, bank


@pytest.mark.parametrize("component", ["cpu0.icache", "cpu0.dcache"])
def test_event_logging_sniffer_sees_every_cache_access(component):
    batched, bank = hooked_platform([component])
    run_batched(batched, 10**9)
    stepped, stepped_bank = hooked_platform([component])
    run_stepwise(stepped, 10**9)
    events = bank.event_sniffers()[0].events
    assert events == stepped_bank.event_sniffers()[0].events
    cache = {c.name: c for c in batched.icaches + batched.dcaches}[component]
    assert len(events) == cache.stats()["accesses"]
    # The hook changes what is observed, not the timing.
    plain, _ = hooked_platform([])
    run_batched(plain, 10**9)
    assert stats_json(batched) == stats_json(plain)


# -- calibration leaves no stale state behind ------------------------------------
def _trace_sha(framework):
    blob = json.dumps(framework.trace.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_event_driven_run_after_calibration_matches_fresh_platform():
    scenario = PRESETS.get("dithering_noc")()
    scenario.config = FrameworkConfig(sampling_period_s=2e-5)
    fresh, _ = scenario.run()
    framework = scenario.build()
    # A windowed calibration runs the workload to completion on this
    # very platform, then restores its functional state in place.
    WindowedCalibration(framework.platform, max_instructions=None)
    framework.run(*scenario.bounds)
    assert stats_json(framework.platform) == stats_json(fresh.platform)
    assert _trace_sha(framework) == _trace_sha(fresh)


def test_run_after_calibration_sees_reset_registers():
    # r1 is never initialized: the loop count relies on registers being
    # zero after load, so a run on a stale register file diverges.
    program = assemble("""
        main:   li   r2, 50
        loop:   addi r1, r1, 1
                blt  r1, r2, loop
                halt
    """)

    def loaded():
        platform = build_platform(small_config(2))
        for index in range(2):
            platform.load_program(index, program)
        return platform

    fresh = loaded()
    run_batched(fresh, 10**9)
    calibrated = loaded()
    WindowedCalibration(calibrated, max_instructions=None)
    run_batched(calibrated, 10**9)
    assert stats_json(calibrated) == stats_json(fresh)
