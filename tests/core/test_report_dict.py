"""``RunReport.to_dict`` against ``dataclasses.asdict``.

``to_dict`` copies the report field by field with ``json_copy`` rather
than through ``asdict``'s recursive walk; the dict must still equal
``asdict(report)`` and share no mutable container with the report, on
live bus and NoC runs, a design-space point and a trace replay.
"""

import dataclasses

import pytest

from repro.dse.space import default_points, point_scenario
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.trace.store import TraceStore


def replayed_report():
    scenario = PRESETS.get("matrix_tm_unmanaged")()
    scenario.max_emulated_seconds = 0.5
    store = TraceStore()
    Runner(trace_store=store).run([scenario])
    (result,) = Runner(trace_store=store).run([scenario])
    assert result.ok and result.replayed
    return result.report


def live_report(make):
    (result,) = Runner().run([make()])
    assert result.ok and not result.replayed
    return result.report


REPORTS = {
    "matrix_quickstart": lambda: live_report(PRESETS.get("matrix_quickstart")),
    "dithering_noc": lambda: live_report(PRESETS.get("dithering_noc")),
    "dse_point": lambda: live_report(
        lambda: point_scenario(default_points()[0], max_windows=4)),
    "replay": replayed_report,
}


def containers(value):
    """Ids of every dict and list inside ``value``."""
    if isinstance(value, dict):
        yield id(value)
        for item in value.values():
            yield from containers(item)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            yield id(value)
        for item in value:
            yield from containers(item)


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_to_dict_equals_asdict(kind):
    report = REPORTS[kind]()
    data = report.to_dict()
    assert data == dataclasses.asdict(report)
    assert list(data) == [f.name for f in dataclasses.fields(report)]
    assert data["extras"], kind
    shared = set(containers(data)) & set(
        containers({f.name: getattr(report, f.name) for f in dataclasses.fields(report)}))
    assert not shared
