"""Utilization vectors against the per-source dict path they replaced.

The oracle below is the former ``ActivityVector`` route kept test-side
only: a ``{source: utilization}`` dict filled through ``set`` (each value
clamped to [0, 1] on its own), gathered per component with
``np.fromiter`` over the model's sources, then the unchanged frequency
and voltage scaling.  The workloads' vectors must give bit-identical
power vectors on every window.
"""

import random
from itertools import repeat

import numpy as np
import pytest

from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.power.models import (
    ACTIVE_WEIGHT,
    IDLE_WEIGHT,
    STALL_WEIGHT,
    TECH_NODES,
    PowerModel,
)
from repro.scenario.presets import PRESETS
from repro.thermal.floorplan import floorplan_4xarm11, floorplan_hetero
from repro.util.units import MHZ


# -- the oracle: the dict path ------------------------------------------------

def _clamp01(value):
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


class DictActivity:
    """The former ActivityVector: per-source utilizations in a dict."""

    def __init__(self):
        self.utilization = {}

    def set(self, source, value):
        self.utilization[source] = _clamp01(value)


class DictProfiledWorkload:
    """The former ProfiledWorkload.advance, on the dict path."""

    def __init__(self, profile, total_iterations):
        self.profile = profile
        self.remaining = float(total_iterations)

    def advance(self, window_cycles):
        activity = DictActivity()
        if window_cycles <= 0 or self.remaining <= 1e-12:
            return activity
        possible = window_cycles / self.profile.cycles_per_iteration
        executed = min(self.remaining, possible)
        busy_fraction = executed / possible
        self.remaining -= executed
        scaled = {k: v * busy_fraction
                  for k, v in self.profile.utilization.items()}
        for source, value in scaled.items():
            activity.set(source, value)
        return activity


def dict_activity_from_stats(stats_delta, window_cycles):
    """The former PowerModel.activity_from_stats."""
    activity = DictActivity()
    if window_cycles <= 0:
        return activity
    w = float(window_cycles)
    for index, core in enumerate(stats_delta.get("cores", {}).values()):
        busy = (
            ACTIVE_WEIGHT * core.get("active_cycles", 0)
            + STALL_WEIGHT * core.get("stall_cycles", 0)
            + IDLE_WEIGHT * core.get("idle_cycles", 0)
        )
        activity.set(("core", index), busy / w)
    for index, cache in enumerate(stats_delta.get("icaches", {}).values()):
        activity.set(("icache", index), cache.get("accesses", 0) / w)
    for index, cache in enumerate(stats_delta.get("dcaches", {}).values()):
        activity.set(("dcache", index), cache.get("accesses", 0) / w)
    for index, mem in enumerate(stats_delta.get("private_mems", {}).values()):
        words = mem.get("reads", 0) + mem.get("writes", 0)
        activity.set(("private_mem", index), words / w)
    shared = stats_delta.get("shared_mem", {})
    shared_words = shared.get("reads", 0) + shared.get("writes", 0)
    activity.set(("shared_mem", None), shared_words / w)
    inter = stats_delta.get("interconnect", {})
    if "switch_flits" in inter:
        for switch, flits in inter["switch_flits"].items():
            activity.set(("noc_switch", switch), flits / (w * 4.0))
    if "busy_cycles" in inter:
        activity.set(("bus", None), inter.get("busy_cycles", 0) / w)
    return activity


def dict_component_power(model, activity, frequency_hz=None,
                         core_frequencies=None):
    """The former PowerModel.component_power on a DictActivity."""
    sources = model.sources + (object(),)  # passive: a key no dict has
    util = np.fromiter(
        map(activity.utilization.get, sources, repeat(0.0)),
        float, len(sources),
    )[model._slots]
    if not (0.0 <= util.min() and util.max() <= 1.0 + 1e-9):
        raise ValueError("utilization not in [0,1]")
    f = model._ref_hz if frequency_hz is None else float(frequency_hz)
    if core_frequencies:
        clocks = (model._ref_hz.tolist() if frequency_hz is None
                  else [f] * len(model._ref_hz))
        for k, core in model._core_slots:
            if core in core_frequencies:
                clocks[k] = core_frequencies[core]
        f = np.array(clocks, dtype=float)
    power = model._max_power * util * (f / model._ref_hz)
    node = model.tech_node
    if node is not None:
        clocks = f.tolist() if isinstance(f, np.ndarray) else [f]
        scales = {
            hz: node.voltage_scale(hz) if hz > 0.0 else 1.0
            for hz in dict.fromkeys(clocks)
        }
        if len(clocks) == 1:
            power *= scales[clocks[0]]
        else:
            power *= [scales[hz] for hz in clocks]
    return power


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- randomized profiles --------------------------------------------------------

def random_profile(rng, model):
    """Utilizations for most of the model's sources (some over 1, some
    negative), plus sources the floorplan does not have."""
    utilization = {
        source: rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.5),
                            rng.uniform(-1.0, 0.0)])
        for source in model.sources if rng.random() < 0.8
    }
    utilization[("core", 17)] = rng.uniform(0.0, 3.0)
    utilization[("noc_switch", "nowhere")] = 0.5
    utilization[("bus", None)] = rng.uniform(0.0, 1.5)
    return ActivityProfile(
        name="random", cycles_per_iteration=rng.uniform(50.0, 5000.0),
        utilization=utilization,
        instructions_per_iteration=rng.uniform(10.0, 1000.0),
    )


def random_clocks(rng):
    if rng.random() < 0.2:
        return None
    return rng.choice([100, 200, 333.3, 500]) * MHZ


def random_core_frequencies(rng):
    if rng.random() < 0.5:
        return None
    return {core: rng.uniform(50.0, 600.0) * MHZ
            for core in range(4) if rng.random() < 0.6} or None


@pytest.mark.parametrize("seed", range(12))
def test_profiled_windows_match_the_dict_path_bitwise(seed):
    rng = random.Random(seed)
    node = rng.choice([None, *TECH_NODES.names()])
    plan = rng.choice([floorplan_4xarm11, floorplan_hetero])()
    model = PowerModel(plan, tech_node=node)
    profile = random_profile(rng, model)
    # A fractional iteration count leaves a partial final window.
    total = rng.uniform(30_000.0, 200_000.0) / profile.cycles_per_iteration
    workload = ProfiledWorkload(profile, total).bind(model)
    oracle = DictProfiledWorkload(profile, total)
    partial = 0
    for window in range(60):
        cycles = rng.choice([0, 1000, 5000, 10_000, rng.randrange(1, 20_000)])
        possible = cycles / profile.cycles_per_iteration
        partial += 0.0 < workload.remaining < possible
        vector = workload.advance(cycles)
        activity = oracle.advance(cycles)
        f = random_clocks(rng)
        cores = random_core_frequencies(rng)
        assert_same_bits(
            model.component_power(vector, f, cores),
            dict_component_power(model, activity, f, cores),
        )
    assert workload.done
    assert partial == 1  # the final window was only partly busy


def test_utilization_vector_matches_the_dict_gather():
    rng = random.Random(7)
    model = PowerModel(floorplan_4xarm11(), tech_node="90nm")
    for _ in range(20):
        mapping = {source: rng.uniform(0.0, 1.0) for source in model.sources
                   if rng.random() < 0.7}
        mapping[("dcache", 9)] = 0.25  # not on this floorplan
        activity = DictActivity()
        for source, value in mapping.items():
            activity.set(source, value)
        f = random_clocks(rng)
        cores = random_core_frequencies(rng)
        assert_same_bits(
            model.component_power(model.utilization_vector(mapping), f, cores),
            dict_component_power(model, activity, f, cores),
        )


# -- framework windows -------------------------------------------------------------

def record_windows(framework):
    """Record, for every window the framework steps from now on, its
    workload cycles, activity-from-stats inputs, the utilizations,
    clocks and per-core clock map its power came from, and that power;
    returns the list the records go into."""
    windows = []
    workload, model = framework.workload, framework.power_model
    advance, extract = workload.advance, model.activity_from_stats
    emulate = framework._window_emulate

    def recording_advance(cycles):
        windows.append({"cycles": cycles})
        return advance(cycles)

    def recording_extract(delta, cycles):
        windows[-1]["stats"] = (delta, cycles)
        return extract(delta, cycles)

    def recording_emulate():
        frequency, activity, level = emulate()
        windows[-1].update(activity=activity.copy(), f=frequency,
                           cores=level.core_frequencies)
        return frequency, activity, level

    class RecordingWatts:
        def on_window(self, framework, watts):
            windows[-1]["watts"] = watts.copy()

    workload.advance = recording_advance
    model.activity_from_stats = recording_extract
    framework._window_emulate = recording_emulate
    framework.attach_capture(RecordingWatts())
    return windows


def step(framework, count):
    for _ in range(count):
        framework.step_window()


def test_hetero_biglittle_windows_match_the_dict_path():
    """Mixed static clocks (per-core frequencies every window) under the
    preset's 65 nm V(f) scaling, through a DFS step and a partial final
    window."""
    scenario = PRESETS.get("hetero_biglittle")()
    params = scenario.workload.params
    profile = ActivityProfile.from_dict(params["profile"])
    # 12.5 iterations a window at the preset's clock, half that after
    # the step: the work ends inside window 29.
    params["total_iterations"] = 300.3
    framework = scenario.build()
    model = framework.power_model
    assert model.tech_node is not None
    oracle = DictProfiledWorkload(profile, params["total_iterations"])
    windows = record_windows(framework)
    step(framework, 20)
    framework.vpcm.set_frequency(framework.vpcm.virtual_hz / 2)
    step(framework, 20)
    assert framework.workload.done
    mixed = 0
    for window in windows:
        cores = window["cores"]
        mixed += len(set(cores.values())) > 1
        assert_same_bits(
            window["watts"],
            dict_component_power(model, oracle.advance(window["cycles"]),
                                 window["f"], cores),
        )
    assert mixed == len(windows)


def test_direct_dithering_noc_windows_match_the_dict_path():
    scenario = PRESETS.get("dithering_noc")()
    scenario.config.sampling_period_s = 2e-5
    framework = scenario.build()
    model = framework.power_model
    windows = record_windows(framework)
    step(framework, 6)
    for window in windows:
        delta, cycles = window["stats"]
        activity = dict_activity_from_stats(delta, cycles)
        gathered = np.fromiter(
            map(activity.utilization.get, model.sources, repeat(0.0)),
            float, len(model.sources),
        )
        assert_same_bits(window["activity"][:-1], gathered)
        assert_same_bits(
            window["watts"],
            dict_component_power(model, activity, window["f"],
                                 window["cores"]),
        )
    assert any(window["activity"].any() for window in windows)
