"""Concurrent writers on the disk TraceStore (the farm's shared cache).

Regression for the racing-writer bug: two processes storing the same
digest used to share one fixed ``<name>.tmp`` temp file — the second
writer truncated it mid-write, so the surviving archive could be a
corrupt interleaving.  Saves now go through uniquely named temp files
plus ``os.replace``, and shard indexes update under a per-shard file
lock.
"""

import json
import multiprocessing

import pytest

from repro.trace.capture import record
from repro.trace.format import load_archive
from repro.trace.store import TraceStore
from repro.util.locking import FileLock, atomic_write_json, unique_tmp_path


def _fork_ctx():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    return multiprocessing.get_context("fork")


def _put_when_released(archive_path, store_root, barrier, rounds):
    store = TraceStore(store_root)
    archive = load_archive(archive_path)
    for _ in range(rounds):
        barrier.wait()
        store.put(archive)


def test_overlapping_same_digest_writes_stay_valid(tmp_path, stress_scenario):
    """N processes repeatedly store the identical digest in lockstep;
    the surviving archive must always load and validate."""
    _, _, archive = record(stress_scenario)
    source = archive.save(tmp_path / "source.npz")
    store_root = tmp_path / "store"
    ctx = _fork_ctx()
    writers, rounds = 3, 4
    barrier = ctx.Barrier(writers)
    processes = [
        ctx.Process(
            target=_put_when_released,
            args=(str(source), str(store_root), barrier, rounds),
        )
        for _ in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    store = TraceStore(store_root)
    assert len(store) == 1
    loaded = store.get(archive.scenario_digest)
    assert loaded.windows == archive.windows
    assert loaded.metadata == archive.metadata
    # No orphaned temp files survive the stampede.
    assert not list(store_root.rglob("*.tmp"))


def test_unique_tmp_paths_never_collide(tmp_path):
    target = tmp_path / "archive.npz"
    names = {unique_tmp_path(target).name for _ in range(64)}
    assert len(names) == 64
    assert all(name.endswith(".tmp") for name in names)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "index.json"
    atomic_write_json(path, {"a": 1})
    atomic_write_json(path, {"b": 2})
    assert json.loads(path.read_text()) == {"b": 2}
    assert not list(tmp_path.glob("*.tmp"))


def test_file_lock_excludes_other_holders(tmp_path):
    lock_path = tmp_path / "x.lock"
    with FileLock(lock_path):
        contender = FileLock(lock_path, timeout=0.1, poll_s=0.01)
        with pytest.raises(TimeoutError):
            contender.acquire()
    # Released: a fresh holder acquires immediately.
    with FileLock(lock_path, timeout=0.5):
        pass


# -- per-shard index files ---------------------------------------------------


def test_put_maintains_shard_index(tmp_path, stress_scenario):
    _, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path / "store")
    digest = store.put(archive)
    index_file = store.root / digest[:2] / "index.json"
    assert index_file.is_file()
    index = json.loads(index_file.read_text())
    assert digest in index
    assert index[digest]["windows"] == archive.windows
    [(entry_digest, meta)] = store.entries()
    assert entry_digest == digest
    assert meta["scenario"]["name"] == stress_scenario.name


def test_entries_heal_missing_index(tmp_path, stress_scenario):
    """A legacy store (archives without indexes) is healed on first
    enumeration instead of failing or staying slow forever."""
    _, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path / "store")
    digest = store.put(archive)
    index_file = store.root / digest[:2] / "index.json"
    index_file.unlink()
    [(entry_digest, meta)] = store.entries()
    assert entry_digest == digest
    assert meta["windows"] == archive.windows
    assert index_file.is_file()  # healed for the next caller


def test_torn_index_falls_back_to_archives(tmp_path, stress_scenario):
    _, _, archive = record(stress_scenario)
    store = TraceStore(tmp_path / "store")
    digest = store.put(archive)
    (store.root / digest[:2] / "index.json").write_text("{ not json")
    [(entry_digest, _)] = store.entries()
    assert entry_digest == digest
    assert store.get(digest) is not None
