"""One injection rule for live, recorded and mixed groups.

A :class:`~repro.core.framework.WindowGroup` injects a window's watts
block again only when its bytes differ from the block it injected
last, whichever members (emulated or replayed) supplied the rows.  The
oracle is the same runs with every kept value forgotten before each
window, so power and injection are recomputed every time: results must
be byte-identical, and the reusing runs must inject less.
"""

import numpy as np

from repro.core.framework import WindowGroup
from repro.scenario.presets import PRESETS
from repro.thermal.rc_network import RCNetwork
from repro.trace.capture import record
from repro.trace.replay import replay
from repro.trace.store import TraceStore
from tests.core.test_steady_window import dse_batches, dse_facts


def counted(monkeypatch):
    """Count ``RCNetwork.injection`` calls and group windows."""
    counts = {"injections": 0, "windows": 0}
    injection, step = RCNetwork.injection, WindowGroup.step

    def counting_injection(network, watts):
        counts["injections"] += 1
        return injection(network, watts)

    def counting_step(group):
        counts["windows"] += 1
        return step(group)

    monkeypatch.setattr(RCNetwork, "injection", counting_injection)
    monkeypatch.setattr(WindowGroup, "step", counting_step)
    return counts


def forget_before_every_window(monkeypatch):
    step = WindowGroup.step

    def forgetful_step(group):
        group._inputs = group._injected = None
        return step(group)

    monkeypatch.setattr(WindowGroup, "step", forgetful_step)


def test_dse_groups_inject_only_when_their_watts_change(monkeypatch):
    counts = counted(monkeypatch)
    store = TraceStore()
    reused = dse_facts(dse_batches(store), store)
    assert 0 < counts["injections"] < counts["windows"]

    with monkeypatch.context() as patch:
        forget_before_every_window(patch)
        counts.update(injections=0, windows=0)
        store = TraceStore()
        assert dse_facts(dse_batches(store), store) == reused
        assert counts["injections"] == counts["windows"]


def test_a_replay_injects_once_per_change_of_its_recorded_watts(monkeypatch):
    """A profiled DFS run's watts change only at its level changes, so
    its replay injects once for the first window and once per change."""
    framework, report, archive = record(PRESETS.get("matrix_tm_cached")())
    assert report.frequency_transitions > 0
    rows = [row.tobytes() for row in archive.power_w]
    changes = 1 + sum(a != b for a, b in zip(rows, rows[1:]))
    assert changes < len(rows)

    counts = counted(monkeypatch)
    player, _ = replay(archive)
    assert counts["windows"] == len(rows)
    assert counts["injections"] == changes
    assert player.trace.digest() == framework.trace.digest()
    np.testing.assert_array_equal(player.trace.powers(), framework.trace.powers())
