"""Shared fixtures: small platforms and floorplans the tests reuse."""

import pytest

from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
from repro.scenario.presets import PRESETS
from repro.util.units import KB

#: The default preset at its own window size: 40 MATRIX iterations in
#: 1 ms windows (~9 windows).  On the ``windowed`` backend this is the
#: highest window rate in the repo.
PRESET_SIZES = dict(iterations=40, sampling_period_s=0.001)


def small_config(num_cores=2, interconnect="bus", noc=None, **overrides):
    """A compact MPSoC configuration for fast tests."""
    kwargs = dict(
        name="test",
        cores=[CoreConfig(f"cpu{i}") for i in range(num_cores)],
        icache=CacheConfig(name="i", size=1 * KB, line_size=16),
        dcache=CacheConfig(name="d", size=1 * KB, line_size=16),
        private_mem_size=16 * KB,
        shared_mem_size=64 * KB,
        interconnect=interconnect,
        noc=noc,
    )
    kwargs.update(overrides)
    return MPSoCConfig(**kwargs)


def quickstart_scenario(backend, iterations, sampling_period_s):
    """``matrix_quickstart`` resized and switched to ``backend``."""
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.workload.params["iterations"] = iterations
    scenario.config.sampling_period_s = sampling_period_s
    scenario.config.emulation_backend = backend
    return scenario


@pytest.fixture
def platform2():
    """Two Microblaze-class cores on the custom bus."""
    return build_platform(small_config(2))


@pytest.fixture
def platform1():
    """One core, cacheless private-memory-only runs stay deterministic."""
    return build_platform(small_config(1))
