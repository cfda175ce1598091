"""Window records read on demand against the eager definition.

:meth:`SnifferBank.collect_window` keeps each enabled count sniffer's
two flat snapshots and diffs its record only when read.  On a
10-window ``dithering_noc`` run, every window's records must equal the
eager reference — ``flatten_numeric(stats())`` diffed against the
previous snapshot at the window's close — whether they are read at once
or only after later windows have closed.  One count sniffer is switched
off over MMIO for good, another off and back on (counting afresh from
the switch-on), and one event-logging sniffer rides along.

A profiled design (``hetero_biglittle``) closes its windows without
reading the platform once its sniffers hold a baseline; its records
must equal the same eager reference, for a sniffer switched back on and
for one added mid-run alike.
"""

import pytest

from repro.core.sniffers import (
    EVENT_RECORD_BYTES,
    REG_ENABLE,
    CountLoggingSniffer,
    EventLoggingSniffer,
    WindowRecords,
)
from repro.core.stats import flatten_numeric
from repro.mpsoc.platform import MMIO_BASE
from repro.scenario.presets import PRESETS

WINDOWS = 10


class EagerReference:
    """The per-window definition, computed eagerly from nested stats."""

    def __init__(self, bank):
        self.bank = bank
        self.last = {s.name: {} for s in bank.count_sniffers()}
        self.events = []

    def resume(self, sniffer):
        self.last[sniffer.name] = flatten_numeric(sniffer.component.stats())

    def close(self):
        records, payload = {}, 0
        for sniffer in self.bank.sniffers:
            if isinstance(sniffer, EventLoggingSniffer):
                records[sniffer.name] = self.events[:]
                self.events.clear()
                payload += EVENT_RECORD_BYTES * len(records[sniffer.name])
            elif not sniffer.enabled:
                records[sniffer.name] = {}
            else:
                current = flatten_numeric(sniffer.component.stats())
                last = self.last[sniffer.name]
                self.last[sniffer.name] = current
                records[sniffer.name] = {
                    key: value - last.get(key, 0) for key, value in current.items()
                }
                payload += 8 + 8 * len(current)
        return records, payload


def test_lazy_records_match_the_eager_deltas():
    scenario = PRESETS.get("dithering_noc")()
    # Short windows, so the cores are still running at the tenth.
    scenario.config.sampling_period_s = 2e-5
    framework = scenario.build()
    platform, bank = framework.platform, framework.sniffer_bank
    shared = platform.shared_mem
    bank.add(EventLoggingSniffer(f"{shared.name}.evt", shared), platform.mmio)
    reference = EagerReference(bank)
    shared.attach_hook(reference.events.append)

    closed = []
    collect = bank.collect_window

    def closing(*args, **kwargs):
        records, payload = collect(*args, **kwargs)
        expected, expected_payload = reference.close()
        assert payload == expected_payload
        # Odd windows are read at once, even ones after the run.
        read_now = len(closed) % 2 == 1
        closed.append((dict(records) if read_now else records, expected))
        return records, payload

    bank.collect_window = closing
    by_name = {s.name: s for s in bank.count_sniffers()}
    off, toggled = by_name["cpu1.cnt"], by_name["cpu2.cnt"]

    def mmio_enable(sniffer, value):
        address = MMIO_BASE + bank.mmio_offsets[sniffer.name] + REG_ENABLE
        platform.memctrls[0].store(address, 4, value, t=0)
        assert sniffer.enabled == bool(value)

    while framework.windows < WINDOWS:
        if framework.windows == 2:
            mmio_enable(toggled, 0)
        if framework.windows == 3:
            mmio_enable(off, 0)
        if framework.windows == 5:
            mmio_enable(toggled, 1)
            reference.resume(toggled)
        framework.step_window()

    assert len(closed) == WINDOWS
    names = [s.name for s in bank.sniffers]
    for window, (records, expected) in enumerate(closed):
        assert list(records) == names
        assert dict(records) == expected, f"window {window}"
    assert closed[5][1][off.name] == {}
    assert closed[5][1][toggled.name]["instructions"] > 0
    assert not framework.workload.done
    assert all(expected[f"{shared.name}.evt"] for _, expected in closed)


def test_profiled_records_match_the_eager_deltas():
    framework = PRESETS.get("hetero_biglittle")().build()
    assert framework.workload.runs_platform is False
    platform, bank = framework.platform, framework.sniffer_bank
    # Counters a boot image left behind: the first window reports them,
    # a sniffer switched on later counts from its switch-on.
    for core in platform.cores[:2]:
        core.instructions = core.class_counts["alu"] = 5
    reference = EagerReference(bank)

    closed = []
    collect = bank.collect_window

    def closing(*args, **kwargs):
        records, payload = collect(*args, **kwargs)
        expected, expected_payload = reference.close()
        assert payload == expected_payload
        # Even windows are read at once, odd ones after the run.
        read_now = len(closed) % 2 == 0
        closed.append((dict(records) if read_now else records, expected))
        return records, payload

    bank.collect_window = closing
    by_name = {s.name: s for s in bank.count_sniffers()}
    toggled = by_name[f"{platform.cores[1].name}.cnt"]
    shared = platform.shared_mem
    added = None
    while framework.windows < WINDOWS:
        if framework.windows == 0:
            toggled.enabled = False
        if framework.windows == 2:
            added = bank.add(
                CountLoggingSniffer(f"{shared.name}.late.cnt", shared), platform.mmio
            )
            reference.last[added.name] = {}
        if framework.windows == 4:
            toggled.enabled = True
            reference.resume(toggled)
        framework.step_window()

    assert len(closed) == WINDOWS
    for window, (records, expected) in enumerate(closed):
        assert list(records) == [s.name for s in bank.sniffers][: len(expected)]
        assert dict(records) == expected, f"window {window}"
    assert closed[0][1][f"{platform.cores[0].name}.cnt"]["instructions"] == 5
    assert closed[1][1][f"{platform.cores[0].name}.cnt"]["instructions"] == 0
    assert closed[3][1][toggled.name] == {}
    assert closed[4][1][toggled.name]["instructions"] == 0
    assert closed[2][1][added.name] == {"reads": 0, "writes": 0}
    assert added.name not in closed[1][1]


def test_window_records_are_a_read_only_mapping(platform2):
    from repro.core.sniffers import SnifferBank

    bank = SnifferBank.from_platform(platform2)
    records, _ = bank.collect_window()
    assert isinstance(records, WindowRecords)
    name = bank.sniffers[0].name
    assert name in records and "missing" not in records
    assert records[name] is records[name]
    assert records.get("missing") is None
    with pytest.raises(TypeError):
        records[name] = {}
    platform2.dcaches[0].access(0x00, False)
    later, _ = bank.collect_window()
    dcache = f"{platform2.dcaches[0].name}.cnt"
    # Reading the first window after the second closed: its own deltas.
    assert records[dcache]["accesses"] == 0
    assert later[dcache]["accesses"] == 1
