"""The acceptance criteria: fleet-wide dedup and crash resilience.

* A 32-variant structure-sharing sweep through a 4-worker farm with a
  shared store performs exactly one live emulation per unique trace
  digest (asserted via job provenance).
* SIGKILLing a worker mid-job requeues the job and a second worker
  completes it — nothing is lost.
"""

import time

import pytest

from repro.farm.jobs import DONE, RUNNING
from repro.farm.local import LocalFarm
from repro.scenario.sweep import Variant, sweep
from tests.farm.conftest import quick_scenario, slow_scenario


def thirty_two_variants():
    """2 emulation-side x 16 thermal-side variants = 32 scenarios with
    exactly 2 unique boundary-stream digests."""
    members = []
    for seconds in (0.5, 1.0):  # run bounds shape the stream: 2 digests
        members.extend(sweep(
            quick_scenario("accept", seconds=seconds),
            {
                "config.die_resolution": [
                    Variant(f"{n}x{n}", [n, n]) for n in (4, 6, 8, 10)
                ],
                "config.spreader_resolution": [
                    Variant(f"sp{n}", [n, n]) for n in (2, 3)
                ],
                "config.solver_backend": ["sparse_be", "cached_lu"],
            },
            name=f"accept_{seconds}",
        ))
    return members


def test_32_variant_sweep_emulates_once_per_digest(tmp_path):
    members = thirty_two_variants()
    assert len(members) == 32
    with LocalFarm(tmp_path, workers=4, heartbeat_timeout=15.0) as farm:
        jobs = farm.run(members, timeout=300.0)
    assert len(jobs) == 32
    assert all(job.state == DONE for job in jobs)

    unique_digests = {job.trace_digest for job in jobs}
    assert len(unique_digests) == 2
    emulated = [job for job in jobs if job.provenance["mode"] == "emulated"]
    replayed = [job for job in jobs if job.provenance["mode"] == "replayed"]
    # Exactly one live emulation per unique digest, fleet-wide.
    assert len(emulated) == len(unique_digests)
    assert {job.trace_digest for job in emulated} == unique_digests
    assert len(replayed) == 30
    # The recordings landed in the shared sharded store.
    assert len(farm.store) == 2
    # Work was genuinely distributed (4 workers, 32 jobs).
    workers_used = {job.provenance["worker"] for job in jobs}
    assert len(workers_used) > 1


def test_killed_worker_mid_job_requeues_and_completes(tmp_path):
    farm = LocalFarm(
        tmp_path, workers=1, heartbeat_timeout=1.5, heartbeat_s=0.2,
        poll_s=0.05,
    )
    with farm:
        [job] = farm.submit(slow_scenario())
        victim = farm.spawn_worker("victim", stop_when_idle=True)
        deadline = time.monotonic() + 60.0
        while farm.queue.get(job.job_id).state != RUNNING:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        time.sleep(0.2)  # well inside the ~3 s emulation
        victim.kill()  # SIGKILL: no goodbye heartbeat, no cleanup
        victim.join(timeout=10.0)
        assert farm.queue.get(job.job_id).state == RUNNING  # orphaned

        rescuer = farm.spawn_worker("rescuer", stop_when_idle=False)
        deadline = time.monotonic() + 120.0
        while True:
            record = farm.queue.get(job.job_id)
            if record.state == DONE:
                break
            assert time.monotonic() < deadline, (
                f"job stuck in {record.state}"
            )
            time.sleep(0.1)
    assert record.requeues == 1
    events = [entry["event"] for entry in record.history]
    assert events.count("requeued") == 1
    assert record.provenance["worker"] == "rescuer"
    assert record.provenance["mode"] == "emulated"
    assert record.result["status"] == "ok"


def test_farm_run_surfaces_permanently_failed_jobs(tmp_path):
    bad = quick_scenario("terminal")
    bad.floorplan = "missing_floorplan"
    with LocalFarm(tmp_path, workers=2) as farm:
        jobs = farm.run(
            [bad, quick_scenario("fine")],
            timeout=120.0, max_retries=1, retry_backoff_s=0.0,
        )
    failed, fine = jobs
    assert failed.state == "failed"
    assert failed.attempts == 2
    assert "unknown floorplan" in failed.error
    assert fine.state == DONE


_DETERMINISM = {}


@pytest.mark.parametrize("workers", [1, 3])
def test_farm_is_deterministic_across_worker_counts(tmp_path, workers):
    """Physics must not depend on fleet size: the same sweep through 1
    or 3 workers yields identical per-scenario reports."""
    members = sweep(quick_scenario("det"), {
        "config.die_resolution": [Variant("4", [4, 4]), Variant("6", [6, 6])],
    })
    with LocalFarm(tmp_path / f"w{workers}", workers=workers) as farm:
        jobs = farm.run(members, timeout=120.0)
    peaks = [job.result["report"]["peak_temperature_k"] for job in jobs]
    assert all(job.state == DONE for job in jobs)
    # Stash for cross-param comparison via a module-level registry.
    _DETERMINISM[workers] = peaks
    if len(_DETERMINISM) == 2:
        assert _DETERMINISM[1] == pytest.approx(_DETERMINISM[3], abs=0.0)
