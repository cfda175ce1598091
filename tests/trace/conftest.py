"""Shared trace-test helpers: short presets sized for fast runs."""

import numpy as np
import pytest

from repro.scenario.presets import PRESETS
from repro.thermal.rc_network import RCNetwork


def short_scenario(preset="matrix_tm_unmanaged", seconds=1.0, name=None):
    """A bounded copy of a preset (profiled, so it runs in milliseconds)."""
    scenario = PRESETS.get(preset)()
    scenario.max_emulated_seconds = seconds
    if name:
        scenario.name = name
    return scenario


@pytest.fixture
def stress_scenario():
    return short_scenario()


@pytest.fixture
def injections(monkeypatch):
    """Every ``RCNetwork.injection`` call the test makes, in order, as
    ``(watts, per-cell sources)`` copies: what a window injected."""
    calls = []
    injection = RCNetwork.injection

    def recording(network, watts):
        sources = injection(network, watts)
        calls.append((np.array(watts), sources.copy()))
        return sources

    monkeypatch.setattr(RCNetwork, "injection", recording)
    return calls
