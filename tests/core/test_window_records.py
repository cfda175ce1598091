"""Sniffer windows against the eager definition.

The framework closes each window with :meth:`SnifferBank.close_window`,
which keeps no records; :meth:`SnifferBank.collect_window` keeps each
enabled count sniffer's two flat snapshots and diffs its record only
when read.  Both move the sniffers on through one step.  The eager
reference is ``flatten_numeric(stats())`` diffed against the previous
snapshot at the window's close.

On a 10-window ``dithering_noc`` run, every window the framework closes
must have the reference's payload and leave each enabled count sniffer
at the reference's snapshot, and every window closed with
``collect_window`` must have the reference's records, whether they are
read at once or only after later windows have closed.  One count
sniffer is switched off over MMIO for good, another off and back on
(counting afresh from the switch-on), and one event-logging sniffer
rides along.
"""

import pytest

from repro.core.sniffers import (
    EVENT_RECORD_BYTES,
    REG_ENABLE,
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


def watch_close_window(bank, reference):
    """Check every window ``bank.close_window`` closes against
    ``reference``: its payload, and each enabled count sniffer's
    baseline.  Returns the reference's records, one per window."""
    closed = []
    close = bank.close_window

    def closing():
        payload = close()
        expected, expected_payload = reference.close()
        assert payload == expected_payload
        for sniffer in bank.count_sniffers():
            if sniffer.enabled:
                assert sniffer._last == reference.last[sniffer.name], sniffer.name
        closed.append(expected)
        return payload

    bank.close_window = closing
    return closed


def collect_windows(bank, reference, windows, before):
    """Close ``windows`` windows with ``bank.collect_window``, calling
    ``before(window)`` ahead of each, and check each payload against
    ``reference``.  Returns ``(records, expected)`` per window; odd
    windows' records are read at once, even ones only afterwards."""
    closed = []
    for window in range(windows):
        before(window)
        records, payload = bank.collect_window()
        expected, expected_payload = reference.close()
        assert payload == expected_payload
        read_now = window % 2 == 1
        closed.append((dict(records) if read_now else records, expected))
    for window, (records, expected) in enumerate(closed):
        assert list(records) == [s.name for s in bank.sniffers][: len(expected)]
        assert dict(records) == expected, f"window {window}"
    return closed


def dithering_run():
    """A short-window ``dithering_noc`` run with an event sniffer added;
    returns ``(framework, reference, toggle, off, toggled)``, where
    ``toggle(window)`` switches ``off`` and ``toggled`` over MMIO ahead
    of ``window``."""
    scenario = PRESETS.get("dithering_noc")()
    # Short windows, so the cores are still running at the tenth.
    scenario.config.sampling_period_s = 2e-5
    framework = scenario.build()
    platform, bank = framework.platform, framework.sniffer_bank
    shared = platform.shared_mem
    bank.add(EventLoggingSniffer(f"{shared.name}.evt", shared), platform.mmio)
    reference = EagerReference(bank)
    shared.attach_hook(reference.events.append)
    by_name = {s.name: s for s in bank.count_sniffers()}
    off, toggled = by_name["cpu1.cnt"], by_name["cpu2.cnt"]

    def mmio_enable(sniffer, value):
        address = MMIO_BASE + bank.mmio_offsets[sniffer.name] + REG_ENABLE
        platform.memctrls[0].store(address, 4, value, t=0)
        assert sniffer.enabled == bool(value)

    def toggle(window):
        if window == 2:
            mmio_enable(toggled, 0)
        if window == 3:
            mmio_enable(off, 0)
        if window == 5:
            mmio_enable(toggled, 1)
            reference.resume(toggled)

    return framework, reference, toggle, off, toggled


def check_dithering(framework, closed, off, toggled):
    """What the ``dithering_noc`` run must have exercised."""
    assert len(closed) == WINDOWS
    assert closed[5][off.name] == {}
    assert closed[5][toggled.name]["instructions"] > 0
    assert not framework.workload.done
    shared = framework.platform.shared_mem
    assert all(expected[f"{shared.name}.evt"] for expected in closed)


def test_framework_windows_match_the_eager_reference():
    framework, reference, toggle, off, toggled = dithering_run()
    closed = watch_close_window(framework.sniffer_bank, reference)
    while framework.windows < WINDOWS:
        toggle(framework.windows)
        framework.step_window()
    check_dithering(framework, closed, off, toggled)


def test_lazy_records_match_the_eager_deltas():
    framework, reference, toggle, off, toggled = dithering_run()
    cycles = framework.vpcm.window_cycles(framework.config.sampling_period_s)

    def run_window(window):
        toggle(window)
        framework.workload.advance(cycles)

    closed = collect_windows(
        framework.sniffer_bank, reference, WINDOWS, run_window
    )
    check_dithering(framework, [expected for _, expected in closed], off, toggled)


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
