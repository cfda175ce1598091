"""BRAM buffer and Ethernet dispatcher tests."""

import random
from types import SimpleNamespace

import pytest

from repro.core.dispatcher import (
    FRAME_HEADER_BYTES,
    BramBuffer,
    EthernetDispatcher,
)
from repro.core.framework import ClockLevel, EmulationFramework
from repro.core.vpcm import FREEZE_ETHERNET, Vpcm
from repro.emulation.ethernet import EthernetLink
from repro.policy.builtin import NoManagementPolicy


def test_buffer_push_and_drain():
    buf = BramBuffer(capacity_bytes=100)
    assert buf.push(60) == 0
    assert buf.level_bytes == 60
    assert buf.push(60) == 20  # 20 bytes overflow
    assert buf.level_bytes == 100
    assert buf.drain(30) == 30
    assert buf.level_bytes == 70
    assert buf.drain(1000) == 70
    assert buf.peak_bytes == 100


def test_buffer_validation():
    with pytest.raises(ValueError):
        BramBuffer(capacity_bytes=0)
    buf = BramBuffer()
    with pytest.raises(ValueError):
        buf.push(-1)


def test_dispatch_without_congestion():
    dispatcher = EthernetDispatcher(
        link=EthernetLink(bandwidth_bps=100e6), buffer=BramBuffer(64 * 1024)
    )
    # 1 kB per 10 ms window: far below 100 Mbit/s.
    freeze = dispatcher.dispatch_window(1000, real_window_seconds=0.01, num_sensors=4)
    assert freeze == 0.0
    stats = dispatcher.stats()
    assert stats["windows"] == 1
    assert stats["freeze_events"] == 0
    assert stats["bytes_sent"] > 1000  # payload + feedback


def test_dispatch_congestion_freezes():
    # A 1 kB buffer and a slow link: a 100 kB window must freeze.
    dispatcher = EthernetDispatcher(
        link=EthernetLink(bandwidth_bps=1e6), buffer=BramBuffer(1024)
    )
    freeze = dispatcher.dispatch_window(100_000, real_window_seconds=0.01)
    assert freeze > 0.0
    stats = dispatcher.stats()
    assert stats["freeze_events"] == 1
    assert stats["freeze_seconds"] == pytest.approx(freeze)


def test_sustained_overload_keeps_freezing():
    dispatcher = EthernetDispatcher(
        link=EthernetLink(bandwidth_bps=1e6), buffer=BramBuffer(4096)
    )
    freezes = [
        dispatcher.dispatch_window(50_000, real_window_seconds=0.01)
        for _ in range(5)
    ]
    assert all(f > 0 for f in freezes[1:])


def test_one_frame_per_window_with_its_header():
    dispatcher = EthernetDispatcher()
    dispatcher.dispatch_window(10, 0.01)
    dispatcher.dispatch_window(20, 0.01)
    stats = dispatcher.stats()
    assert stats["windows"] == stats["frames"] == 2
    assert stats["bytes_sent"] == 10 + 20 + 2 * FRAME_HEADER_BYTES
    assert dispatcher.buffer.total_pushed == 10 + 20 + 2 * FRAME_HEADER_BYTES


def test_dispatch_validates():
    dispatcher = EthernetDispatcher()
    with pytest.raises(ValueError):
        dispatcher.dispatch_window(-1, 0.01)
    with pytest.raises(ValueError):
        dispatcher.dispatch_window(1, -0.01)


# -- the method-by-method window, kept as the oracle --------------------------

class ReferenceBuffer(BramBuffer):
    """The buffer as it was written out method by method."""

    def push(self, nbytes):
        if nbytes < 0:
            raise ValueError("cannot push a negative byte count")
        accepted = min(nbytes, self.capacity_bytes - self.level_bytes)
        self.level_bytes += accepted
        self.total_pushed += accepted
        self.peak_bytes = max(self.peak_bytes, self.level_bytes)
        return nbytes - accepted


class ReferenceLink(EthernetLink):
    """A link whose send also computes the transfer time nobody reads."""

    def send(self, payload_bytes):
        duration = self.transfer_time(payload_bytes)
        self.bytes_sent += payload_bytes
        self.frames_sent += self.frame_count(payload_bytes)
        return duration


class ReferenceDispatcher(EthernetDispatcher):
    def dispatch_window(self, payload_bytes, real_window_seconds, num_sensors=0):
        if payload_bytes < 0 or real_window_seconds < 0:
            raise ValueError("negative window inputs")
        wire_payload = payload_bytes + FRAME_HEADER_BYTES
        self.windows += 1
        drain_capacity = self.link.bandwidth_bps / 8.0 * real_window_seconds
        overflow = self.buffer.push(wire_payload)
        self.buffer.drain(drain_capacity)
        freeze = 0.0
        if overflow > 0:
            freeze = self.link.wire_bytes(overflow) * 8.0 / self.link.bandwidth_bps
            self.buffer.drain(overflow)
            self.freeze_events += 1
        self.link.send(wire_payload)
        if num_sensors:
            self.link.send(self.feedback_bytes_per_sensor * num_sensors)
        self.freeze_seconds += freeze
        return freeze


def reference_window(vpcm, dispatcher, payload, period, num_sensors):
    """One window's dispatch and VPCM accounting as the framework made
    them: the board seconds computed once for each."""
    freeze = dispatcher.dispatch_window(
        payload, vpcm.window_real_seconds(period), num_sensors=num_sensors
    )
    if freeze > 0:
        vpcm.freeze_seconds(freeze, FREEZE_ETHERNET)
    vpcm.emulated_seconds += period
    vpcm.real_seconds += vpcm.window_real_seconds(period)
    return freeze


def framework_window(vpcm, dispatcher, payload, period, num_sensors):
    """One window through the framework's own ``_window_dispatch`` and
    the VPCM accounting of ``_window_commit``, on the board seconds of
    the :class:`ClockLevel` the framework's ``_clocks`` builds for the
    window's clock."""
    run = SimpleNamespace(
        vpcm=vpcm, dispatcher=dispatcher,
        config=SimpleNamespace(sampling_period_s=period,
                               virtual_hz=100e6),
        sniffer_bank=SimpleNamespace(close_window=lambda: payload),
        sensors=SimpleNamespace(names=("s",) * num_sensors),
        policy=NoManagementPolicy(), _hetero_core_hz=None, _level=None,
        power_model=SimpleNamespace(clock_rows=lambda hz, clocks: (None, None)),
    )
    level = EmulationFramework._clocks(run, vpcm.virtual_hz)
    assert isinstance(level, ClockLevel) and run._level is level
    freezes = []
    dispatch = dispatcher.dispatch_window

    def recording(*args, **kwargs):
        freezes.append(dispatch(*args, **kwargs))
        return freezes[-1]

    dispatcher.dispatch_window = recording
    EmulationFramework._window_dispatch(run)
    vpcm.account_window(period, level.board)
    return freezes[0]


@pytest.mark.parametrize("seed", range(12))
def test_the_window_matches_the_method_by_method_reference(seed):
    rng = random.Random(seed)
    bandwidth = rng.choice([1e5, 1e6, 100e6])
    capacity = rng.choice([64, 1024, 64 * 1024])
    physical = rng.choice([50e6, 100e6])
    period = rng.choice([1e-5, 1e-4, 1e-2])
    num_sensors = rng.choice([0, 0, 4, 14])
    sides = []
    for buffer, link, dispatcher in (
        (ReferenceBuffer, ReferenceLink, ReferenceDispatcher),
        (BramBuffer, EthernetLink, EthernetDispatcher),
    ):
        sides.append((
            Vpcm(physical_hz=physical, virtual_hz=100e6),
            dispatcher(link=link(bandwidth_bps=bandwidth),
                       buffer=buffer(capacity_bytes=capacity)),
        ))
    freezes = ([], [])
    for window in range(80):
        if window % 20 == 10:  # a DFS change mid-run (0 Hz stops the clock)
            hz = rng.choice([0.0, 50e6, 100e6, 250e6, 500e6])
            for vpcm, _ in sides:
                vpcm.set_frequency(hz)
        payload = rng.choice([0, 0, rng.randrange(1, 64),
                              rng.randrange(64, 200_000)])
        for side, step, out in zip(sides, (reference_window, framework_window),
                                   freezes):
            out.append(step(*side, payload, period, num_sensors))
    assert freezes[0] == freezes[1]
    (ref_vpcm, ref), (vpcm, dispatcher) = sides
    # repr, so an int where the reference holds a float counts too.
    assert repr(dispatcher.stats()) == repr(ref.stats())
    assert repr(vars(dispatcher.buffer)) == repr(vars(ref.buffer))
    assert repr((vpcm.real_seconds, vpcm.emulated_seconds, vpcm.freezes)) == (
        repr((ref_vpcm.real_seconds, ref_vpcm.emulated_seconds,
              ref_vpcm.freezes)))
    assert 0 < sum(freeze > 0 for freeze in freezes[1]) < len(freezes[1])
