"""BRAM buffer and Ethernet dispatcher tests."""

import pytest

from repro.core.dispatcher import (
    FRAME_HEADER_BYTES,
    BramBuffer,
    EthernetDispatcher,
)
from repro.emulation.ethernet import EthernetLink


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
