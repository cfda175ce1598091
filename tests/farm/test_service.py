"""The HTTP submission API and its client, end to end in-process."""

import pytest

from repro.farm.client import FarmClient, FarmClientError
from repro.farm.jobs import DONE
from repro.farm.service import FarmService
from repro.farm.worker import FarmWorker
from tests.farm.conftest import quick_scenario


@pytest.fixture
def service(queue):
    with FarmService(queue) as running:
        yield running


@pytest.fixture
def client(service):
    return FarmClient(service.url)


def test_submit_status_and_job_lookup(client, queue):
    scenario = quick_scenario("http_submit")
    [job] = client.submit(scenario)
    assert job.state == "submitted"
    assert queue.get(job.job_id) is not None  # really landed on disk
    fetched = client.job(job.job_id)
    assert fetched.scenario == job.scenario
    status = client.status()
    assert status["jobs"]["submitted"] == 1
    assert client.jobs(state="submitted")[0].job_id == job.job_id
    # Scenario JSON travels verbatim: the record is the lossless dict.
    assert fetched.scenario["workload"] == scenario.to_dict()["workload"]


def test_sweep_submits_unchanged_through_client(client):
    from repro.scenario.sweep import Variant, sweep

    members = sweep(quick_scenario("swept"), {
        "config.die_resolution": [Variant("4", [4, 4]), Variant("6", [6, 6])],
    })
    jobs = client.submit(members)
    assert len(jobs) == 2
    assert len({job.job_id for job in jobs}) == 2
    assert len({job.trace_digest for job in jobs}) == 1  # open loop


def test_remote_worker_protocol_round_trip(client):
    [job] = client.submit(quick_scenario("remote_work"))
    client.register_worker("net-worker", ("emulate", "replay"))
    claimed = client.claim("net-worker", ("emulate", "replay"))
    assert claimed.job_id == job.job_id
    assert client.claim("other") is None  # exclusivity over HTTP
    assert client.heartbeat(job.job_id, "net-worker")
    done = client.complete(job.job_id, {"status": "ok"}, worker="net-worker")
    assert done.state == DONE
    assert client.drained()
    workers = client.workers()
    assert any(w["worker"] == "net-worker" for w in workers)


def test_full_worker_against_http_service(client, queue):
    [job] = client.submit(quick_scenario("via_http"))
    worker = FarmWorker(
        client, store=queue.store, worker_id="w-http",
        stop_when_idle=True, poll_s=0.01,
    )
    worker.run_forever()
    record = client.job(job.job_id)
    assert record.state == DONE
    assert record.provenance["mode"] == "emulated"
    assert record.provenance["worker"] == "w-http"
    [registered] = [w for w in client.workers() if w["worker"] == "w-http"]
    assert registered["jobs_done"] == 1  # progress travels over HTTP too


def test_concurrent_requests_share_the_queue_safely(client):
    """Many service threads claiming/beating at once must serialize on
    the queue lock — never collide on it and surface a 500 (the shared
    FileLock regression)."""
    import threading

    client.submit([
        quick_scenario(f"conc{i}", seconds=0.25 + i * 0.25) for i in range(6)
    ])
    errors, claimed = [], []
    lock = threading.Lock()

    def hammer(i):
        worker = f"hammer-{i}"
        try:
            client.register_worker(worker, ("emulate", "replay"))
            for _ in range(3):
                job = client.claim(worker)
                client.worker_heartbeat(worker)
                if job is not None:
                    client.heartbeat(job.job_id, worker)
                    with lock:
                        claimed.append(job.job_id)
        except FarmClientError as exc:
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(claimed) == len(set(claimed))  # exclusivity held throughout


def test_plain_liveness_beat_preserves_capabilities(client):
    client.register_worker("beating", ("emulate", "fpga"))
    client.worker_heartbeat("beating")  # no jobs_done: liveness only
    [record] = [w for w in client.workers() if w["worker"] == "beating"]
    assert record["capabilities"] == ["emulate", "fpga"]
    client.worker_heartbeat("beating", jobs_done=2)
    [record] = [w for w in client.workers() if w["worker"] == "beating"]
    assert record["capabilities"] == ["emulate", "fpga"]
    assert record["jobs_done"] == 2


def test_fail_over_http_records_structured_log(client):
    [job] = client.submit(quick_scenario("http_fail"), max_retries=0)
    client.claim("w1")
    failed = client.fail(
        job.job_id, "ValueError: nope", traceback="Traceback...", worker="w1"
    )
    assert failed.state == "failed"
    [entry] = failed.history
    assert entry["error"] == "ValueError: nope"
    assert entry["traceback"] == "Traceback..."


def test_wait_blocks_until_terminal(client):
    [job] = client.submit(quick_scenario("waited"))
    with pytest.raises(TimeoutError):
        client.wait([job.job_id], timeout=0.2, poll_s=0.05)
    client.claim("w1")
    client.complete(job.job_id, {"status": "ok"}, worker="w1")
    jobs = client.wait([job.job_id], timeout=5.0)
    assert jobs[job.job_id].state == DONE


def test_api_errors_surface_with_status(client):
    assert client.job("feedfeedfeedfeed") is None  # 404 -> None
    with pytest.raises(FarmClientError) as excinfo:
        client._request("POST", "/api/jobs", {"scenarios": []})
    assert excinfo.value.status == 400
    with pytest.raises(FarmClientError) as excinfo:
        client._request("GET", "/api/nonsense")
    assert excinfo.value.status == 404
    with pytest.raises(FarmClientError) as excinfo:
        client.submit({"name": "broken"})  # no workload: rejected upstream
    assert excinfo.value.status == 400
    with pytest.raises(FarmClientError, match="unreachable"):
        FarmClient("http://127.0.0.1:9", timeout=0.5).status()


def test_bad_state_filter_rejected(client):
    with pytest.raises(FarmClientError) as excinfo:
        client.jobs(state="limbo")
    assert excinfo.value.status == 400


def test_http_sweep_drained_by_two_workers_emulates_once_per_digest(
    client, queue
):
    """The deployment shape end to end: a 4-variant die-resolution sweep
    submitted over HTTP and drained by two client-attached workers; the
    shared store dedups the open-loop boundary stream."""
    from repro.scenario.sweep import Variant, sweep

    members = sweep(quick_scenario("farm_smoke"), {
        "config.die_resolution": [
            Variant(f"{n}x{n}", [n, n]) for n in (4, 6, 8, 10)
        ],
    })
    jobs = client.submit(members)
    assert len(jobs) == 4
    for i in range(2):
        FarmWorker(
            client, store=queue.store, worker_id=f"smoke-{i}",
            stop_when_idle=True, poll_s=0.01,
        ).run_forever()
    finished = client.wait([job.job_id for job in jobs], timeout=60.0)
    records = [finished[job.job_id] for job in jobs]
    assert [record.state for record in records] == [DONE] * 4
    emulated = sum(r.provenance["mode"] == "emulated" for r in records)
    digests = {record.trace_digest for record in records}
    assert emulated == len(digests) == len(queue.store)
