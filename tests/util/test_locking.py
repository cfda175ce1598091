"""Direct unit tests for repro.util.locking.

The farm and TraceStore race tests exercise FileLock end to end on
POSIX; these tests pin down the primitives themselves — including the
``O_CREAT | O_EXCL`` spin fallback that only runs where ``fcntl`` is
missing, forced here by monkeypatching the module.
"""

import threading
import time

import pytest

import repro.util.locking as locking
from repro.util.locking import (
    FileLock,
    atomic_write_json,
    atomic_write_text,
    unique_tmp_path,
)


# -- unique_tmp_path --------------------------------------------------------


def test_unique_tmp_path_is_a_sibling(tmp_path):
    target = tmp_path / "store" / "entry.json"
    tmp = unique_tmp_path(target)
    assert tmp.parent == target.parent
    assert tmp.name.startswith(".entry.json.")
    assert tmp.name.endswith(".tmp")


def test_unique_tmp_path_never_collides(tmp_path):
    # Same destination, many calls: every temp path is distinct, so two
    # writers racing on one content-addressed file cannot interleave.
    target = tmp_path / "entry.json"
    paths = {unique_tmp_path(target) for _ in range(200)}
    assert len(paths) == 200


def test_atomic_write_text_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_text_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "x")
    assert target.read_text() == "x"


def test_atomic_write_json_sorts_keys(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"b": 1, "a": 2})
    assert target.read_text() == '{"a": 2, "b": 1}\n'


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(locking.os, "replace", broken_replace)
    target = tmp_path / "out.txt"
    with pytest.raises(OSError):
        atomic_write_text(target, "payload")
    # The orphaned temp file was cleaned up; nothing reached the target.
    assert list(tmp_path.iterdir()) == []


# -- FileLock, flock path ---------------------------------------------------


def test_flock_acquire_release(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    with lock:
        assert lock.held
        with pytest.raises(RuntimeError):
            lock.acquire()
    assert not lock.held
    lock.release()  # idempotent


def test_flock_excludes_threads(tmp_path):
    path = tmp_path / "x.lock"
    order = []
    held = threading.Event()

    def holder():
        with FileLock(path):
            order.append("acquired")
            held.set()
            time.sleep(0.05)
            order.append("releasing")

    thread = threading.Thread(target=holder)
    thread.start()
    # The contender starts only once the holder owns the lock.
    assert held.wait(timeout=2.0)
    with FileLock(path, timeout=2.0):
        order.append("second")
    thread.join()
    assert order == ["acquired", "releasing", "second"]


def test_flock_times_out(tmp_path):
    path = tmp_path / "x.lock"
    with FileLock(path):
        contender = FileLock(path, timeout=0.05, poll_s=0.01)
        with pytest.raises(TimeoutError):
            contender.acquire()
        assert not contender.held


# -- FileLock, spin fallback (fcntl forced away) ----------------------------


@pytest.fixture
def no_fcntl(monkeypatch):
    monkeypatch.setattr(locking, "fcntl", None)


def test_spin_acquire_creates_marker(tmp_path, no_fcntl):
    path = tmp_path / "x.lock"
    lock = FileLock(path)
    lock.acquire()
    marker = path.with_name("x.lock.held")
    assert lock.held
    assert marker.exists()
    lock.release()
    assert not marker.exists()
    assert not lock.held


def test_spin_lock_excludes_a_second_holder(tmp_path, no_fcntl):
    path = tmp_path / "x.lock"
    with FileLock(path):
        contender = FileLock(path, timeout=0.05, poll_s=0.01,
                             stale_seconds=60.0)
        with pytest.raises(TimeoutError):
            contender.acquire()


def test_spin_lock_serializes_threads(tmp_path, no_fcntl):
    path = tmp_path / "x.lock"
    counter = {"value": 0, "max_concurrent": 0, "active": 0}
    guard = threading.Lock()

    def worker():
        with FileLock(path, timeout=5.0, poll_s=0.001):
            with guard:
                counter["active"] += 1
                counter["max_concurrent"] = max(
                    counter["max_concurrent"], counter["active"]
                )
            time.sleep(0.005)
            counter["value"] += 1
            with guard:
                counter["active"] -= 1

    threads = [threading.Thread(target=worker) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter["value"] == 5
    assert counter["max_concurrent"] == 1


def test_spin_lock_breaks_stale_markers(tmp_path, no_fcntl):
    path = tmp_path / "x.lock"
    marker = path.with_name("x.lock.held")
    # A crashed holder left a marker well past the staleness horizon.
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    old = time.time() - 120.0
    import os

    os.utime(marker, (old, old))
    lock = FileLock(path, timeout=0.5, poll_s=0.01, stale_seconds=60.0)
    lock.acquire()  # must break the stale marker instead of timing out
    assert lock.held
    lock.release()


def test_spin_lock_respects_fresh_markers(tmp_path, no_fcntl):
    path = tmp_path / "x.lock"
    marker = path.with_name("x.lock.held")
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()  # fresh: not stale, must NOT be broken
    lock = FileLock(path, timeout=0.05, poll_s=0.01, stale_seconds=60.0)
    with pytest.raises(TimeoutError):
        lock.acquire()
    assert marker.exists()
