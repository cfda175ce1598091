"""Queue semantics: exclusivity, backoff, heartbeat requeue, leases."""

import threading

import pytest

from repro.farm.jobs import DONE, FAILED, RUNNING, SUBMITTED
from tests.farm.conftest import quick_scenario


def thermal_variant(name, resolution):
    """Same boundary stream (open-loop), different thermal knobs —
    distinct jobs sharing one trace digest."""
    return quick_scenario(name, die_resolution=list(resolution))


# -- submission --------------------------------------------------------------


def test_submit_is_idempotent(queue):
    first = queue.submit(quick_scenario("idem"), now=1.0)
    second = queue.submit(quick_scenario("idem"), now=2.0)
    assert first.job_id == second.job_id
    assert second.submitted_at == 1.0  # the original record, untouched
    assert queue.counts()[SUBMITTED] == 1


def test_resubmission_of_done_job_is_answered_from_record(queue):
    scenario = quick_scenario("answered")
    job = queue.submit(scenario, now=0.0)
    claimed = queue.claim("w1", now=1.0)
    assert claimed.job_id == job.job_id
    queue.complete(job.job_id, {"status": "ok"}, worker="w1", now=2.0)
    again = queue.submit(scenario, now=3.0)
    assert again.job_id == job.job_id
    assert again.state == DONE
    assert again.result == {"status": "ok"}
    assert queue.counts()[SUBMITTED] == 0  # nothing re-runs


def test_retry_failed_resurrects_terminal_job(queue):
    scenario = quick_scenario("revive")
    job = queue.submit(scenario, max_retries=0, now=0.0)
    queue.claim("w1", now=0.0)
    queue.fail(job.job_id, "boom", worker="w1", now=1.0)
    assert queue.get(job.job_id).state == FAILED
    assert queue.submit(scenario, now=2.0).state == FAILED  # still parked
    revived = queue.submit(scenario, retry_failed=True, now=3.0)
    assert revived.state == SUBMITTED
    assert revived.attempts == 0


# -- claim exclusivity -------------------------------------------------------


def test_claim_is_exclusive(queue):
    job = queue.submit(quick_scenario("one"), now=0.0)
    first = queue.claim("w1", now=1.0)
    assert first.job_id == job.job_id
    assert first.state == RUNNING and first.worker == "w1"
    assert queue.claim("w2", now=1.0) is None


def test_concurrent_claims_never_double_assign(queue):
    jobs = [queue.submit(quick_scenario(f"j{i}"), now=0.0) for i in range(4)]
    claims = []
    lock = threading.Lock()

    def contender(worker):
        claimed = queue.claim(worker, now=1.0)
        with lock:
            claims.append((worker, claimed))

    threads = [
        threading.Thread(target=contender, args=(f"w{i}",)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    won = [claimed for _, claimed in claims if claimed is not None]
    # Thermal-identical? No — all four scenarios differ by name only,
    # so they share one trace digest: the lease admits exactly one
    # leader until its recording lands.
    digests = {job.trace_digest for job in jobs}
    assert len(digests) == 1
    assert len(won) == 1
    owners = {claimed.job_id for claimed in won}
    assert len(owners) == len(won)


def test_concurrent_claims_on_distinct_digests(queue):
    for i in range(4):
        queue.submit(quick_scenario(f"j{i}", seconds=0.25 + i * 0.25), now=0.0)
    won = [queue.claim(f"w{i}", now=1.0) for i in range(6)]
    won = [job for job in won if job is not None]
    assert len(won) == 4  # all four claimable: distinct digests
    assert len({job.job_id for job in won}) == 4


def test_priority_orders_claims(queue):
    queue.submit(quick_scenario("steerage", seconds=0.25), priority=0, now=0.0)
    vip = queue.submit(quick_scenario("vip", seconds=0.75), priority=9, now=5.0)
    assert queue.claim("w1", now=6.0).job_id == vip.job_id


def test_capability_tags_gate_claims(queue):
    job = queue.submit(quick_scenario("fpga_only"), tags=("fpga",), now=0.0)
    assert queue.claim("sw", capabilities=("emulate",), now=1.0) is None
    claimed = queue.claim("hw", capabilities=("emulate", "fpga"), now=1.0)
    assert claimed.job_id == job.job_id
    # None = an untagged worker accepts anything (the default fleet).
    other = queue.submit(quick_scenario("tagged2", seconds=0.25),
                         tags=("fpga",), now=2.0)
    assert queue.claim("any", capabilities=None, now=3.0).job_id == other.job_id


# -- retry with exponential backoff ------------------------------------------


def test_retry_after_failure_backs_off_exponentially(queue):
    job = queue.submit(
        quick_scenario("flaky"), max_retries=2, retry_backoff_s=4.0, now=0.0
    )
    queue.claim("w1", now=0.0)
    failed = queue.fail(job.job_id, "attempt 1 died", worker="w1", now=10.0)
    assert failed.state == SUBMITTED
    assert failed.attempts == 1
    assert failed.not_before == pytest.approx(14.0)  # 10 + 4 * 2**0

    assert queue.claim("w1", now=12.0) is None  # still backing off
    assert queue.claim("w1", now=14.0) is not None
    failed = queue.fail(job.job_id, "attempt 2 died", worker="w1", now=20.0)
    assert failed.attempts == 2
    assert failed.not_before == pytest.approx(28.0)  # 20 + 4 * 2**1

    assert queue.claim("w1", now=28.0) is not None
    dead = queue.fail(job.job_id, "attempt 3 died", worker="w1", now=30.0)
    assert dead.state == FAILED
    assert dead.attempts == 3
    errors = [entry["error"] for entry in dead.history
              if entry["event"] == "failed"]
    assert errors == ["attempt 1 died", "attempt 2 died", "attempt 3 died"]
    assert queue.claim("w1", now=100.0) is None  # terminal


def test_failure_log_is_structured(queue):
    job = queue.submit(quick_scenario("log"), max_retries=0, now=0.0)
    queue.claim("w9", now=1.0)
    queue.fail(job.job_id, "KeyError: 'x'", traceback="Traceback...\nKeyError",
               worker="w9", now=2.0)
    [entry] = queue.get(job.job_id).history
    assert entry["event"] == "failed"
    assert entry["attempt"] == 1
    assert entry["worker"] == "w9"
    assert entry["error"] == "KeyError: 'x'"
    assert entry["traceback"].startswith("Traceback")
    assert entry["at"] == 2.0


# -- heartbeat-timeout requeue -----------------------------------------------


def test_heartbeat_keeps_job_alive(queue):
    job = queue.submit(quick_scenario("beating"), now=0.0)
    queue.claim("w1", now=0.0)
    assert queue.heartbeat(job.job_id, "w1", now=8.0)
    # w1 heartbeat at 8: at 15 the job is not yet stale (timeout 10).
    assert queue.claim("w2", now=15.0) is None
    assert queue.get(job.job_id).worker == "w1"


def test_lost_worker_requeues_after_timeout(queue):
    job = queue.submit(quick_scenario("orphaned"), now=0.0)
    queue.claim("w1", now=0.0)  # w1 is then SIGKILLed: no more beats
    reclaimed = queue.claim("w2", now=10.5)
    assert reclaimed is not None and reclaimed.worker == "w2"
    record = queue.get(job.job_id)
    assert record.requeues == 1
    events = [entry["event"] for entry in record.history]
    assert "requeued" in events
    # The zombie's heartbeat and completion are refused.
    assert not queue.heartbeat(job.job_id, "w1", now=11.0)
    assert queue.complete(job.job_id, {"zombie": True}, worker="w1") is None
    done = queue.complete(job.job_id, {"ok": True}, worker="w2", now=12.0)
    assert done.state == DONE and done.result == {"ok": True}


def test_late_fail_after_requeue_burns_no_retry_attempt(queue):
    """A stale owner's fail/complete is refused even after the job was
    handed back to SUBMITTED (worker=None) — a liveness requeue never
    burns a retry attempt or parks the job in FAILED."""
    job = queue.submit(quick_scenario("late_fail"), max_retries=0, now=0.0)
    queue.claim("w1", now=0.0)
    assert queue.requeue_stale(now=10.0) == [job.job_id]
    # w1 wakes up late and reports a failure for the requeued job.
    assert queue.fail(job.job_id, "late zombie failure", worker="w1",
                      now=11.0) is None
    assert queue.complete(job.job_id, {"zombie": True}, worker="w1",
                          now=11.0) is None
    record = queue.get(job.job_id)
    assert record.state == SUBMITTED
    assert record.attempts == 0  # the refunded attempt stays refunded
    # The legitimate next owner proceeds normally.
    assert queue.claim("w2", now=12.0).job_id == job.job_id
    assert queue.complete(job.job_id, {"ok": True}, worker="w2",
                          now=13.0).state == DONE


def test_explicit_requeue_stale(queue):
    job = queue.submit(quick_scenario("stale"), now=0.0)
    queue.claim("w1", now=0.0)
    assert queue.requeue_stale(now=5.0) == []
    assert queue.requeue_stale(now=10.0) == [job.job_id]
    assert queue.get(job.job_id).state == SUBMITTED


# -- digest leases -----------------------------------------------------------


def test_digest_lease_defers_followers_until_recording_lands(queue):
    leader = queue.submit(thermal_variant("v1", (4, 4)), now=0.0)
    follower = queue.submit(thermal_variant("v2", (8, 8)), now=0.0)
    assert leader.trace_digest == follower.trace_digest
    assert leader.job_id != follower.job_id

    claimed = queue.claim("w1", now=1.0)
    assert claimed.job_id == leader.job_id
    # The follower is leased out while the leader emulates.
    assert queue.claim("w2", now=1.0) is None
    queue.complete(leader.job_id, {"ok": True}, worker="w1", now=2.0)
    # Recording absent (nothing was stored) but leader no longer runs:
    # the follower becomes the new leader.
    reclaimed = queue.claim("w2", now=3.0)
    assert reclaimed.job_id == follower.job_id


def test_recorded_digest_bypasses_lease(queue):
    from repro.trace.capture import record

    _, _, archive = record(quick_scenario("rec_base"))
    queue.store.put(archive)
    digest = archive.scenario_digest
    a = queue.submit(thermal_variant("r1", (4, 4)), now=0.0)
    b = queue.submit(thermal_variant("r2", (8, 8)), now=0.0)
    assert a.trace_digest == b.trace_digest == digest
    first = queue.claim("w1", now=1.0)
    second = queue.claim("w2", now=1.0)  # replays concurrently: no lease
    assert first is not None and second is not None
    assert {first.job_id, second.job_id} == {a.job_id, b.job_id}


def test_lease_without_store_always_serializes(bare_queue):
    bare_queue.submit(thermal_variant("s1", (4, 4)), now=0.0)
    bare_queue.submit(thermal_variant("s2", (8, 8)), now=0.0)
    assert bare_queue.claim("w1", now=1.0) is not None
    assert bare_queue.claim("w2", now=1.0) is None


# -- bookkeeping -------------------------------------------------------------


def test_counts_drained_and_status(queue):
    assert queue.drained()
    queue.submit(quick_scenario("c1"), now=0.0)
    queue.submit(quick_scenario("c2", seconds=0.25), now=0.0)
    assert not queue.drained()
    queue.claim("w1", now=1.0)
    counts = queue.counts()
    assert counts[SUBMITTED] == 1 and counts[RUNNING] == 1
    status = queue.status()
    assert status["total_jobs"] == 2
    assert status["store"]["entries"] == 0
    queue.register_worker("w1", ("emulate",))
    assert queue.status()["workers"] == 1
    [worker] = queue.workers()
    assert worker["capabilities"] == ["emulate"]


def test_worker_heartbeat_preserves_registration(queue):
    queue.register_worker("w1", ("emulate", "fpga"), now=0.0)
    queue.worker_heartbeat("w1", now=5.0)  # plain liveness beat
    queue.worker_heartbeat("w1", now=6.0, jobs_done=3)
    [record] = queue.workers()
    assert record["capabilities"] == ["emulate", "fpga"]
    assert record["registered_at"] == 0.0
    assert record["heartbeat_at"] == 6.0
    assert record["jobs_done"] == 3
    # Re-registration (worker restart) keeps the progress counter.
    rereg = queue.register_worker("w1", ("emulate",), now=7.0)
    assert rereg["jobs_done"] == 3
    assert rereg["registered_at"] == 0.0


def test_jobs_rejects_unknown_state(queue):
    with pytest.raises(ValueError, match="unknown job state"):
        queue.jobs(state="limbo")
