"""TraceStore and the canonical scenario digest semantics."""

import pytest

from repro.dse.space import default_points, point_scenario
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario
from repro.trace.capture import record
from repro.trace.store import (
    TraceStore,
    content_digest,
    emulation_projection,
    is_open_loop,
    scenario_trace_digest,
)
from repro.util.jsondata import json_copy
from tests.trace.conftest import short_scenario
from tests.trace.test_digest_pin import PINS


# -- digest semantics --------------------------------------------------------


def test_digest_ignores_cosmetic_fields():
    a = short_scenario()
    b = short_scenario(name="renamed")
    b.description = "different words"
    assert scenario_trace_digest(a) == scenario_trace_digest(b)


def test_open_loop_digest_ignores_thermal_side_knobs():
    a = short_scenario()
    b = short_scenario()
    b.config.grid_mode = "uniform"
    b.config.die_resolution = (16, 16)
    b.config.spreader_resolution = (5, 5)
    b.config.solver_backend = "cached_lu"
    b.config.initial_temperature_kelvin = 310.0
    assert is_open_loop(b)
    assert scenario_trace_digest(a) == scenario_trace_digest(b)


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("preset", ["matrix_tm_unmanaged", "matrix_tm_dfs"])
def test_a_dump_with_trace_stride_loads_as_the_dump_without(preset, stride):
    """Dumps, job records and archive configs written while the trace
    could be decimated carry ``config.trace_stride``; loading drops the
    key, so they are the same scenario, open loop or closed."""
    plain = short_scenario(preset).to_dict()
    old = json_copy(plain)
    old["config"]["trace_stride"] = stride
    assert Scenario.from_dict(old).to_dict() == plain
    assert scenario_trace_digest(old) == scenario_trace_digest(plain)


def test_open_loop_digest_tracks_emulation_side_knobs():
    a = short_scenario()
    b = short_scenario()
    b.config.virtual_hz = 250e6
    assert scenario_trace_digest(a) != scenario_trace_digest(b)
    c = short_scenario()
    c.max_emulated_seconds = 2.0  # run bounds shape the stream length
    assert scenario_trace_digest(a) != scenario_trace_digest(c)
    d = short_scenario()
    d.workload.params = dict(d.workload.params, total_iterations=123)
    assert scenario_trace_digest(a) != scenario_trace_digest(d)


def test_reactive_policy_digest_tracks_thermal_knobs():
    a = short_scenario("matrix_tm_dfs")
    b = short_scenario("matrix_tm_dfs")
    assert not is_open_loop(a)
    assert scenario_trace_digest(a) == scenario_trace_digest(b)
    b.config.refine_critical = 2  # a knob the component grid reads
    # The closed loop feeds temperature back into power: thermal knobs
    # change the boundary stream, so the digest must move.
    assert scenario_trace_digest(a) != scenario_trace_digest(b)


def test_projection_drops_thermal_keys_only_for_open_loop():
    open_loop = emulation_projection(short_scenario())
    assert "die_resolution" not in open_loop["config"]
    reactive = emulation_projection(short_scenario("matrix_tm_dfs"))
    assert "die_resolution" in reactive["config"]


def test_platformless_digest_ignores_the_unused_emulation_backend():
    """A profiled scenario has no platform, so no emulation backend ever
    runs; both spellings must share one store entry (the pinned one)."""
    digests = set()
    for backend in ("event_driven", "windowed"):
        scenario = PRESETS.get("matrix_tm_cached")()
        assert scenario.platform is None
        scenario.config.emulation_backend = backend
        digests.add(scenario_trace_digest(scenario))
    assert digests == {PINS["preset:matrix_tm_cached"]}


def test_a_dse_point_digest_ignores_the_backend_it_never_builds():
    """A DSE point names a platform but replays a profile, so it builds
    neither the platform nor an emulation backend: its ``windowed``
    spelling digests like its default twin and replays from the store."""
    point = next(p for p in default_points() if p.big and p.little)
    default = point_scenario(point, max_windows=4)
    windowed = point_scenario(point, max_windows=4)
    windowed.config.emulation_backend = "windowed"
    assert default.platform is not None
    assert default.config.emulation_backend == "event_driven"
    assert scenario_trace_digest(windowed) == scenario_trace_digest(default)
    store = TraceStore()
    (recorded,) = Runner(capture_trace=True, trace_store=store).run([default])
    (replayed,) = Runner(capture_trace=True, trace_store=store).run([windowed])
    assert not recorded.replayed and replayed.replayed
    assert len(store) == 1
    assert replayed.trace.to_dict() == recorded.trace.to_dict()


@pytest.mark.parametrize("section,knob,name", [
    ("config", "emulation_backend", "windowed"),
    ("config", "tech_node", "65nm"),
    (None, "floorplan", "4xarm7"),
])
def test_every_spelling_of_a_spec_digests_the_same(section, knob, name):
    """A spec without params names the same run however it is spelled,
    so every spelling must file under one store digest."""
    digests = set()
    for spelling in (name, {"name": name}, {"name": name, "params": {}}):
        data = PRESETS.get("dithering_noc")().to_dict()
        (data[section] if section else data)[knob] = spelling
        digests.add(scenario_trace_digest(data))
    assert len(digests) == 1


def test_digest_accepts_dicts_and_scenarios():
    scenario = short_scenario()
    assert scenario_trace_digest(scenario) == scenario_trace_digest(
        scenario.to_dict()
    )


def test_digest_normalizes_abbreviated_dicts():
    """Regression: a raw dict that abbreviates (missing sections keep
    defaults, bare policy names) must hash like its normalized
    Scenario.to_dict() form, or store lookups miss every recording
    made through record()."""
    raw = {
        "name": "abbr",
        "floorplan": "4xarm11",
        "workload": {"name": "profiled", "params": {
            "profile": {"name": "s", "cycles_per_iteration": 1000.0,
                        "utilization": [[["core", 0], 0.9]],
                        "instructions_per_iteration": 900.0},
            "total_iterations": 10_000}},
        "max_emulated_seconds": 1.0,
    }
    normalized = Scenario.from_dict(raw).to_dict()
    assert scenario_trace_digest(raw) == scenario_trace_digest(normalized)
    as_string_policy = dict(raw, policy="none")
    assert scenario_trace_digest(as_string_policy) == scenario_trace_digest(
        raw
    )


# -- the store itself --------------------------------------------------------


def test_disk_store_put_get_roundtrip(tmp_path, stress_scenario):
    framework, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path)
    digest = store.put(archive)
    assert digest == archive.scenario_digest
    assert store.has(digest) and digest in store
    assert store.path_for(digest).is_file()
    loaded = store.get(digest)
    assert loaded.metadata["trace_digest"] == framework.trace.digest()
    assert store.get_for(stress_scenario).windows == archive.windows
    assert len(store) == 1


def test_memory_store(stress_scenario):
    _, _, archive = record(stress_scenario)
    store = TraceStore()
    assert store.in_memory
    digest = store.put(archive)
    assert store.get(digest) is archive
    with pytest.raises(ValueError, match="no paths"):
        store.path_for(digest)


def test_store_miss_returns_none(tmp_path):
    store = TraceStore(tmp_path)
    assert store.get("f" * 64) is None
    assert not store.has("f" * 64)
    assert store.digests() == []
    assert store.entries() == []


def test_entries_expose_metadata_without_arrays(tmp_path, stress_scenario):
    _, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path)
    store.put(archive)
    [(digest, meta)] = store.entries()
    assert digest == archive.scenario_digest
    assert meta["windows"] == archive.windows
    assert meta["scenario"]["name"] == stress_scenario.name


def test_put_without_digest_rejected(stress_scenario):
    _, _, archive = record(stress_scenario)
    archive.metadata["scenario_digest"] = None
    with pytest.raises(ValueError, match="digest"):
        TraceStore().put(archive)


def test_content_digest_is_stable_and_content_sensitive(stress_scenario):
    _, _, archive = record(stress_scenario)
    first = content_digest(archive)
    assert first == content_digest(archive)
    archive.power_w = archive.power_w * 2.0
    assert content_digest(archive) != first
