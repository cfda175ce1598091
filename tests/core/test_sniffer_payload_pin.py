"""The per-window sniffer payload against its definition.

Each window the framework closes one statistics window with
:meth:`SnifferBank.collect_window`, which sizes the payload from the
same snapshot it diffs.  The payload that reaches the Ethernet
dispatcher must still be, window by window, ``8 + 8 * len(flatten_numeric
(stats()))`` bytes per enabled count sniffer, and the VPCM freezes a
starved link forces must follow from those bytes.  Counter sets grow
mid-run here on purpose (a new instruction class on a core, a master
registering late on the interconnect), so a payload sized once and
cached would drift from the definition.
"""

import pytest

from repro.core.dispatcher import BramBuffer, EthernetDispatcher
from repro.core.framework import FrameworkConfig
from repro.core.sniffers import CountLoggingSniffer
from repro.core.stats import flatten_numeric
from repro.emulation.ethernet import EthernetLink
from repro.scenario.presets import PRESETS

#: A link slow enough that every window freezes the platform.
STARVED = dict(ethernet_bandwidth_bps=3e6, bram_capacity_bytes=1024)


def defined_payload(bank):
    """The payload definition, from fresh reads of every component."""
    return sum(
        8 + 8 * len(flatten_numeric(sniffer.component.stats()))
        for sniffer in bank.sniffers
        if isinstance(sniffer, CountLoggingSniffer) and sniffer.enabled
    )


def grow_counters(framework, window):
    platform = framework.platform
    if window == 3:
        platform.cores[0].class_counts["late_class"] = 7
    if window == 5:
        platform.interconnect.register_master("late_master")
    if window == 7:
        platform.cores[1].class_counts["later_class"] = 0


def run(preset, config, change):
    scenario = PRESETS.get(preset)()
    scenario.config = config(scenario.config)
    framework = scenario.build()
    dispatched = []
    dispatch = framework.dispatcher.dispatch_window

    def recording(payload_bytes, real_window_seconds, num_sensors=0):
        freeze = dispatch(payload_bytes, real_window_seconds, num_sensors)
        dispatched.append((payload_bytes, defined_payload(framework.sniffer_bank),
                           real_window_seconds, num_sensors, freeze))
        return freeze

    framework.dispatcher.dispatch_window = recording
    while not framework.bounds_reached(*scenario.bounds):
        change(framework, framework.windows)
        framework.step_window()
    return framework, dispatched


def short_starved_windows(config):
    return FrameworkConfig(sampling_period_s=2e-5, **STARVED)


@pytest.mark.parametrize(
    "preset, config, change",
    [
        ("dithering_noc", short_starved_windows, grow_counters),
        ("matrix_quickstart", short_starved_windows, grow_counters),
    ],
    ids=["dithering_noc", "matrix_quickstart"],
)
def test_payload_and_freezes_follow_the_definition(preset, config, change):
    framework, dispatched = run(preset, config, change)
    assert len(dispatched) == framework.windows > 7
    payloads = [row[0] for row in dispatched]
    assert payloads == [row[1] for row in dispatched]
    assert len(set(payloads)) >= 3, "the counter sets changed mid-run"

    reference = EthernetDispatcher(
        link=EthernetLink(bandwidth_bps=framework.config.ethernet_bandwidth_bps),
        buffer=BramBuffer(capacity_bytes=framework.config.bram_capacity_bytes),
    )
    freezes = [
        reference.dispatch_window(defined, real, num_sensors)
        for _, defined, real, num_sensors, _ in dispatched
    ]
    assert freezes == [row[4] for row in dispatched]
    assert all(freeze > 0 for freeze in freezes)
    assert framework.dispatcher.stats() == reference.stats()
