"""Sniffer reads counted, not timed.

The paper's count-logging sniffers read counters the components keep
anyway, so adding sniffers must not slow the emulation down.  This is
the structural property behind
``test_sniffers.py::test_emulation_speed_is_flat_in_sniffer_count``,
asserted with a count of ``flat_stats()`` reads instead of a clock: on
a platform that runs (``matrix_quickstart``), each window reads
every enabled count sniffer's component exactly once, at the window's
close, and never while :meth:`EventDrivenEngine.run_window` runs.  A
profiled design (a DSE point) builds no platform at all, so it has no
sniffer to read.

A co-stepped group window is counted the same way: whatever the member
count, one readout product, one injection product when a member's power
changed (none in a steady window), no
:class:`~repro.core.sniffers.WindowRecords` built (nobody reads them),
and still one read per enabled count sniffer when the platforms run.
"""

import pytest

from repro.core.framework import WindowGroup
from repro.core.sniffers import WindowRecords
from repro.dse.space import default_points, point_scenario
from repro.emulation.engine import EventDrivenEngine
from repro.scenario import spec
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario
from repro.thermal.backends import CachedLU
from repro.thermal.rc_network import RCNetwork


class ReadCounter:
    """Counts ``flat_stats()`` reads by wrapping each component type's
    method; reads made while ``run_window`` runs are counted apart."""

    def __init__(self, monkeypatch, platform):
        self.reads = 0
        self.inside_run_window = 0
        self._running = False
        # Every read taken before any is wrapped: a subclass's inherited
        # read must not wrap its already wrapped base.
        reads = {type(c): type(c).flat_stats for _, c in platform.components()}
        for cls, read in reads.items():
            monkeypatch.setattr(cls, "flat_stats", self._counting(read))
        run_window = EventDrivenEngine.run_window

        def counted_run_window(engine, *args, **kwargs):
            self._running = True
            try:
                return run_window(engine, *args, **kwargs)
            finally:
                self._running = False

        monkeypatch.setattr(EventDrivenEngine, "run_window", counted_run_window)

    def _counting(self, read):
        def flat_stats(component):
            self.reads += 1
            if self._running:
                self.inside_run_window += 1
            return read(component)

        return flat_stats


def build_counted(monkeypatch, preset, sampling_period_s=None):
    """``preset``'s framework, built after the counters are in place
    (a sniffer binds its component type's read when it is made)."""
    scenario = PRESETS.get(preset)()
    if sampling_period_s is not None:
        scenario.config.sampling_period_s = sampling_period_s
    counter = ReadCounter(monkeypatch, scenario.build().platform)
    return scenario.build(), counter


def enabled_count_sniffers(framework):
    return sum(1 for s in framework.sniffer_bank.count_sniffers() if s.enabled)


def test_a_running_platform_is_read_once_per_window_at_its_close(monkeypatch):
    framework, counter = build_counted(
        monkeypatch, "matrix_quickstart", sampling_period_s=2e-5
    )
    assert isinstance(framework.workload.engine, EventDrivenEngine)
    sniffers = framework.sniffer_bank.count_sniffers()
    assert len(sniffers) > 1
    reads = []
    for window in range(8):
        if window == 4:
            sniffers[0].enabled = False
        before = counter.reads
        expected = enabled_count_sniffers(framework)
        framework.step_window()
        reads.append((counter.reads - before, expected))
    assert not framework.workload.done and framework.workload.instructions > 0
    assert all(made == expected for made, expected in reads), reads
    assert reads[4][0] == reads[3][0] - 1
    assert counter.inside_run_window == 0


def test_a_dse_point_builds_no_platform(monkeypatch):
    builds = counted_calls(monkeypatch, spec, "build_platform")
    frameworks = []
    build = Scenario.build

    def recording_build(scenario, *args, **kwargs):
        frameworks.append(build(scenario, *args, **kwargs))
        return frameworks[-1]

    monkeypatch.setattr(Scenario, "build", recording_build)
    points = [p for p in default_points() if p.big and p.little][:3]
    results = Runner().run_batched(
        [point_scenario(p, max_windows=4) for p in points]
    )
    assert all(result.ok for result in results)
    assert len(frameworks) == 3 and not builds
    for framework in frameworks:
        assert framework.windows == 4
        assert framework.platform is None
        assert len(framework.sniffer_bank) == 0
    (result,) = Runner().run_batched([PRESETS.get("matrix_quickstart")()])
    assert result.ok and len(builds) == 1
    assert frameworks[-1].platform is not None


def counted_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the call list."""
    calls = []
    method = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def step_counted(monkeypatch, frameworks, windows, counter=None):
    """Co-step ``frameworks`` as one group; per window, its injection
    and readout products, WindowRecords built and ``flat_stats()``
    reads (with a ``counter``)."""
    injections = counted_calls(monkeypatch, RCNetwork, "injection")
    readouts = counted_calls(monkeypatch, RCNetwork, "component_temperatures")
    records = counted_calls(monkeypatch, WindowRecords, "__init__")
    group = WindowGroup(frameworks, CachedLU().bind(frameworks[0].network))
    counts = []
    for _ in range(windows):
        before = (len(injections), len(readouts), len(records),
                  counter.reads if counter else 0)
        group.step()
        after = (len(injections), len(readouts), len(records),
                 counter.reads if counter else 0)
        counts.append(tuple(b - a for a, b in zip(before, after)))
    return counts


@pytest.mark.parametrize("members", [1, 3, 21])
def test_a_dse_group_window_is_one_product_each_and_keeps_no_records(
    monkeypatch, members
):
    points = [
        p for p in default_points()
        if (p.big, p.little) == (2, 1) and p.spreader_resolution == (2, 2)
    ]
    assert len(points) == 21
    frameworks = [point_scenario(p).build() for p in points[:members]]
    counts = step_counted(monkeypatch, frameworks, 6)
    # A profile's utilizations are constant: one injection in the first
    # window and none in the steady ones, one readout every window;
    # nobody reads the sniffer records.
    assert [c[:3] for c in counts] == [(1, 1, 0)] + [(0, 1, 0)] * 5


def test_a_running_group_reads_each_sniffer_once_a_window(monkeypatch):
    def build():
        scenario = PRESETS.get("matrix_quickstart")()
        scenario.config.sampling_period_s = 2e-5
        return scenario.build()

    counter = ReadCounter(monkeypatch, build().platform)
    frameworks = [build(), build()]
    frameworks[1].sniffer_bank.count_sniffers()[0].enabled = False
    expected = sum(enabled_count_sniffers(f) for f in frameworks)
    counts = step_counted(monkeypatch, frameworks, 5, counter)
    assert all(not f.workload.done for f in frameworks)
    assert counts == [(1, 1, 0, expected)] * 5
    assert counter.inside_run_window == 0
