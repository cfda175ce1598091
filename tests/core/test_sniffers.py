"""Sniffer tests: counting, event capture, MMIO control, bank building,
and emulation speed that stays flat as sniffers are added."""

import statistics
import time

import pytest

from repro.core.sniffers import (
    KIND_COUNT_LOGGING,
    KIND_EVENT_LOGGING,
    REG_ENABLE,
    REG_KIND,
    REG_SELECT,
    REG_VALUE,
    CountLoggingSniffer,
    EventLoggingSniffer,
    SnifferBank,
)
from repro.core.stats import flatten_numeric
from repro.emulation.engine import EventDrivenEngine
from repro.emulation.perfmodel import DEFAULT_MPARM_MODEL
from repro.mpsoc.cache import Cache, CacheConfig
from repro.mpsoc.events import Observable
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
from repro.util.units import KB
from repro.workloads.matrix import matrix_programs


def make_cache():
    return Cache(CacheConfig(name="d", size=256, line_size=16))


def test_count_sniffer_deltas():
    cache = make_cache()
    sniffer = CountLoggingSniffer("d.cnt", cache)
    cache.access(0x00, False)
    cache.access(0x00, False)
    first = sniffer.collect()
    assert first["accesses"] == 2
    assert first["hits"] == 1
    cache.access(0x40, False)
    second = sniffer.collect()
    assert second["accesses"] == 1
    assert second["misses"] == 1


def test_count_sniffer_disabled_reports_nothing():
    cache = make_cache()
    sniffer = CountLoggingSniffer("d.cnt", cache)
    sniffer.enabled = False
    cache.access(0x00, False)
    assert sniffer.collect() == {}
    assert sniffer.window_payload_bytes() == 0


def test_count_sniffer_mmio_interface():
    cache = make_cache()
    sniffer = CountLoggingSniffer("d.cnt", cache)
    assert sniffer.mmio_read(REG_KIND) == KIND_COUNT_LOGGING
    assert sniffer.mmio_read(REG_ENABLE) == 1
    sniffer.mmio_write(REG_ENABLE, 0)
    assert not sniffer.enabled
    cache.access(0x00, False)
    names = sniffer.counter_names()
    index = names.index("accesses")
    sniffer.mmio_write(REG_SELECT, index)
    assert sniffer.mmio_read(REG_SELECT) == index
    assert sniffer.mmio_read(REG_VALUE) == 1
    sniffer.mmio_write(REG_SELECT, 999)
    assert sniffer.mmio_read(REG_VALUE) == 0


def test_count_sniffer_payload_sizing():
    cache = make_cache()
    sniffer = CountLoggingSniffer("d.cnt", cache)
    payload = sniffer.window_payload_bytes()
    assert payload == 8 + 8 * len(sniffer.counter_names())
    record = sniffer.collect()
    assert sniffer.record_bytes(record) == payload


class _Growing:
    """A component whose nested stats gain a counter mid-run."""

    def __init__(self):
        self.counts = {"alu": 3}

    def stats(self):
        return {"instructions": sum(self.counts.values()),
                "class_counts": dict(self.counts), "label": "core"}


def test_count_sniffer_records_are_flat_and_grow():
    component = _Growing()
    sniffer = CountLoggingSniffer("c.cnt", component)
    assert sniffer.collect() == {"instructions": 3, "class_counts.alu": 3}
    component.counts["alu"] += 1
    component.counts["mul"] = 2  # a counter new since the last window
    record = sniffer.collect()
    assert record == {"instructions": 3, "class_counts.alu": 1,
                      "class_counts.mul": 2}
    assert sniffer.record_bytes(record) == 8 + 8 * 3


class _Emitter(Observable):
    def __init__(self):
        super().__init__()
        self.name = "emitter"

    def stats(self):
        return {}


def test_event_sniffer_captures_and_drains():
    emitter = _Emitter()
    sniffer = EventLoggingSniffer("e.evt", emitter)
    emitter.emit(1, "emitter", "cache.hit", (0x40,))
    emitter.emit(2, "emitter", "cache.miss", (0x80,))
    assert sniffer.mmio_read(REG_VALUE) == 2
    assert sniffer.window_payload_bytes() == 24
    events = sniffer.collect()
    assert [e.kind for e in events] == ["cache.hit", "cache.miss"]
    assert sniffer.collect() == []


def test_event_sniffer_respects_enable_and_bound():
    emitter = _Emitter()
    sniffer = EventLoggingSniffer("e.evt", emitter, max_events=2)
    sniffer.enabled = False
    emitter.emit(1, "emitter", "x")
    assert sniffer.collect() == []
    sniffer.enabled = True
    for cycle in range(5):
        emitter.emit(cycle, "emitter", "x")
    assert len(sniffer.collect()) == 2
    assert sniffer.dropped == 3


def test_event_sniffer_kind_code():
    sniffer = EventLoggingSniffer("e.evt", _Emitter())
    assert sniffer.mmio_read(REG_KIND) == KIND_EVENT_LOGGING


def test_bank_from_platform(platform2):
    bank = SnifferBank.from_platform(platform2)
    # One count sniffer per component: 2 cores + 2 memory controllers +
    # 4 caches + 2 private memories + shared + bus.
    assert len(bank) == 12
    assert len(bank.count_sniffers()) == 12
    assert bank.window_payload_bytes() > 0
    assert bank.fpga_overhead_percent() == pytest.approx(0.3 * 12)


def test_bank_with_event_logging(platform2):
    name = platform2.icaches[0].name
    bank = SnifferBank.from_platform(platform2, event_logging=[name])
    assert len(bank.event_sniffers()) == 1


def test_bank_mmio_mapping(platform2):
    bank = SnifferBank.from_platform(platform2)
    # Every sniffer got a distinct MMIO window.
    offsets = list(bank.mmio_offsets.values())
    assert len(offsets) == len(set(offsets))
    # Software can disable the first sniffer through MMIO.
    from repro.mpsoc.platform import MMIO_BASE

    ctrl = platform2.memctrls[0]
    first = bank.sniffers[0]
    ctrl.store(MMIO_BASE + bank.mmio_offsets[first.name] + REG_ENABLE, 4, 0, t=0)
    assert not first.enabled


def test_bank_collect_window(platform2):
    bank = SnifferBank.from_platform(platform2)
    pending = bank.window_payload_bytes()
    records, payload = bank.collect_window()
    assert set(records) == {s.name for s in bank.sniffers}
    assert payload == pending == sum(
        8 + 8 * len(flatten_numeric(s.component.stats()))
        for s in bank.sniffers
    )
    for record in records.values():
        assert all(not isinstance(v, dict) for v in record.values())


def test_bank_payload_skips_disabled_sniffers(platform2):
    bank = SnifferBank.from_platform(platform2)
    bank.sniffers[0].enabled = False
    records, payload = bank.collect_window()
    assert records[bank.sniffers[0].name] == {}
    assert payload == sum(
        8 + 8 * len(flatten_numeric(s.component.stats()))
        for s in bank.sniffers[1:]
    )


def sniffed_matrix_rate(extra_sniffers):
    """Emulated cycles per host second of one 4-core MATRIX run with
    ``extra_sniffers`` count-logging sniffers piled onto the shared
    memory."""
    platform = build_platform(
        MPSoCConfig(
            name="sniff",
            cores=[CoreConfig(f"cpu{i}") for i in range(4)],
            icache=CacheConfig(name="i", size=4 * KB, line_size=16),
            dcache=CacheConfig(name="d", size=4 * KB, line_size=16),
        )
    )
    bank = SnifferBank.from_platform(platform)
    for index in range(extra_sniffers):
        bank.add(
            CountLoggingSniffer(f"extra{index}.cnt", platform.shared_mem),
            platform.mmio,
        )
    platform.load_program_all(matrix_programs(4, n=8))
    start = time.perf_counter()
    _, cycles = EventDrivenEngine(platform).run_to_completion()
    return cycles / (time.perf_counter() - start)


def test_emulation_speed_is_flat_in_sniffer_count():
    """Section 4.1: count-logging sniffers read counters the components
    keep anyway, so adding them does not slow the emulated platform —
    while every monitored component slows a SW cycle-accurate simulator.

    The sniffer counts take turns within each of 7 rounds, in a rotating
    order, and each count's median rate is compared: a burst of host
    load then slows one run of every count, not every run of one."""
    sniffed_matrix_rate(0)  # warm the interpreter caches
    counts = [0, 16, 64, 128]
    samples = {extra: [] for extra in counts}
    for round_ in range(7):
        shift = round_ % len(counts)
        for extra in counts[shift:] + counts[:shift]:
            samples[extra].append(sniffed_matrix_rate(extra))
    rates = {extra: statistics.median(runs) for extra, runs in samples.items()}
    assert min(rates.values()) > 0.55 * max(rates.values())
    assert rates[128] > 0.7 * rates[0]
    assert DEFAULT_MPARM_MODEL.rate_hz(4, components=150) < (
        DEFAULT_MPARM_MODEL.rate_hz(4, components=22) / 4
    )


def test_count_sniffer_reenabled_counts_from_the_switch_on():
    cache = make_cache()
    sniffer = CountLoggingSniffer("d.cnt", cache)
    sniffer.enabled = False
    for _ in range(5):
        cache.access(0x00, False)
    sniffer.enabled = True
    cache.access(0x00, False)
    record = sniffer.collect()
    assert record["accesses"] == 1
    assert record["hits"] == 1
    assert sniffer.record_bytes(record) == 8 + 8 * len(record)


def test_count_sniffer_reenabled_over_mmio_counts_from_the_switch_on(platform2):
    from repro.mpsoc.platform import MMIO_BASE

    bank = SnifferBank.from_platform(platform2)
    cache = platform2.dcaches[0]
    sniffer = next(s for s in bank.count_sniffers() if s.component is cache)
    address = MMIO_BASE + bank.mmio_offsets[sniffer.name] + REG_ENABLE
    ctrl = platform2.memctrls[0]
    ctrl.store(address, 4, 0, t=0)
    assert not sniffer.enabled
    for _ in range(5):
        cache.access(0x00, False)
    records, _ = bank.collect_window()
    assert records[sniffer.name] == {}
    ctrl.store(address, 4, 1, t=0)
    assert sniffer.enabled
    cache.access(0x00, False)
    records, _ = bank.collect_window()
    assert records[sniffer.name]["accesses"] == 1
    # Re-enabling an enabled sniffer keeps its baseline.
    cache.access(0x00, False)
    ctrl.store(address, 4, 1, t=0)
    assert sniffer.collect()["accesses"] == 1
