"""Farm observability: ``GET /metrics``, worker spans, workers CLI."""

import urllib.request

import pytest

from repro.farm.cli import main as farm_main
from repro.farm.client import FarmClient
from repro.farm.metrics import refresh_queue_metrics, stale_running
from repro.farm.service import FarmService
from repro.farm.worker import FarmWorker
from repro.obs.metrics import MetricsRegistry
from tests.farm.conftest import quick_scenario


@pytest.fixture
def service(queue):
    with FarmService(queue) as running:
        yield running


@pytest.fixture
def client(service):
    return FarmClient(service.url)


def scrape(service):
    with urllib.request.urlopen(service.url + "/metrics", timeout=10) as r:
        assert r.status == 200
        assert r.headers["Content-Type"].startswith("text/plain")
        return r.read().decode("utf-8")


# -- refresh_queue_metrics -------------------------------------------------


def test_refresh_publishes_queue_gauges(queue):
    queue.submit(quick_scenario("gauge_a"))
    queue.submit(quick_scenario("gauge_b", seconds=0.25))
    queue.register_worker("w-gauges", ("emulate", "replay"))
    claimed = queue.claim("w-gauges")
    registry = refresh_queue_metrics(queue, registry=MetricsRegistry())
    jobs = registry.get("repro_farm_jobs")
    assert jobs.labels(state="running").value == 1.0
    assert jobs.labels(state="submitted").value == 1.0
    assert registry.get("repro_farm_queue_depth").value == 1.0
    assert registry.get("repro_farm_workers").value == 1.0
    age = registry.get("repro_farm_worker_heartbeat_age_seconds")
    assert age.labels(worker="w-gauges").value >= 0.0
    # Attempts count *finished* attempts: 0 after the claim, 1 once the
    # job completes.
    assert registry.get("repro_farm_job_attempts").value == 0.0
    queue.complete(claimed.job_id, {"status": "ok"}, worker="w-gauges")
    registry = refresh_queue_metrics(queue, registry=MetricsRegistry())
    assert registry.get("repro_farm_job_attempts").value == 1.0


def test_refresh_predeclares_zero_counters(queue):
    registry = refresh_queue_metrics(queue, registry=MetricsRegistry())
    text = registry.render_prometheus()
    # Families appear in the exposition before anything ever increments
    # them — a first scrape must already cover retries and claims.
    assert "# TYPE repro_farm_retries_total counter" in text
    assert "repro_farm_retries_total 0.0" in text
    assert "repro_farm_requeues_total 0.0" in text
    assert "# TYPE repro_farm_claims_total counter" in text
    assert "# TYPE repro_farm_claim_latency_seconds histogram" in text
    assert "repro_farm_store_hit_ratio 0.0" in text


def test_stale_running_flags_dead_heartbeats(queue):
    queue.submit(quick_scenario("stale"))
    job = queue.claim("w-stale")
    assert stale_running(queue) == []
    future = job.heartbeat_at + queue.heartbeat_timeout + 1.0
    assert stale_running(queue, now=future) == [job.job_id]


# -- GET /metrics on the service -------------------------------------------


def test_metrics_endpoint_serves_prometheus_text(client, service, queue):
    [job] = client.submit(quick_scenario("metrics_e2e"))
    FarmWorker(
        client, store=queue.store, worker_id="w-metrics",
        stop_when_idle=True, poll_s=0.01,
    ).run_forever()
    text = scrape(service)
    assert 'repro_farm_jobs{state="done"} 1.0' in text
    assert "repro_farm_queue_depth 0.0" in text
    assert 'repro_farm_claims_total{outcome="job"}' in text
    assert "repro_farm_retries_total" in text
    assert "repro_farm_store_hit_ratio" in text
    assert "repro_farm_claim_latency_seconds_bucket" in text
    assert "repro_farm_emulated_jobs 1.0" in text
    assert job.job_id  # submitted id stays valid end to end


def test_metrics_endpoint_ignores_query_strings(client, service):
    with urllib.request.urlopen(
        service.url + "/metrics?format=prometheus", timeout=10
    ) as response:
        assert response.status == 200


def test_store_hit_ratio_counts_replayed_jobs(client, service, queue):
    # Same trace digest three times: one emulation, two replays.
    variants = [
        quick_scenario("ratio", die_resolution=(4 + 2 * i, 4 + 2 * i))
        for i in range(3)
    ]
    client.submit(variants)
    FarmWorker(
        client, store=queue.store, worker_id="w-ratio",
        stop_when_idle=True, poll_s=0.01,
    ).run_forever()
    text = scrape(service)
    assert "repro_farm_replayed_jobs 2.0" in text
    assert "repro_farm_emulated_jobs 1.0" in text
    ratio = [
        line for line in text.splitlines()
        if line.startswith("repro_farm_store_hit_ratio")
    ]
    assert ratio and float(ratio[0].split()[-1]) == pytest.approx(2 / 3)


# -- worker span summaries -------------------------------------------------


def test_worker_stamps_span_summary_into_extras(client, queue):
    [job] = client.submit(quick_scenario("spanned"))
    FarmWorker(
        client, store=queue.store, worker_id="w-spans",
        stop_when_idle=True, poll_s=0.01,
    ).run_forever()
    record = client.job(job.job_id)
    farm_extras = record.result["report"]["extras"]["farm"]
    spans = farm_extras["spans"]
    assert spans["digest"]
    assert spans["spans"]["farm.job"]["count"] == 1
    assert spans["spans"]["run"]["count"] == 1
    assert spans["spans"]["window.solve"]["count"] >= 1


# -- workers CLI -----------------------------------------------------------


def test_workers_cli_shows_heartbeat_age_and_current_job(
    client, service, queue, capsys
):
    [job] = client.submit(quick_scenario("cli_busy"))
    client.register_worker("w-cli", ("emulate", "replay"))
    claimed = client.claim("w-cli", ("emulate", "replay"))
    assert claimed.job_id == job.job_id
    assert farm_main(["workers", "--url", service.url]) == 0
    text = capsys.readouterr().out
    assert "w-cli" in text
    assert "ago" in text
    assert job.job_id in text
    # JSON form carries the same derived fields.
    import json

    assert farm_main(["workers", "--url", service.url, "--json"]) == 0
    [record] = [
        row for row in json.loads(capsys.readouterr().out)
        if row["worker"] == "w-cli"
    ]
    assert record["last_heartbeat_age_s"] >= 0.0
    assert record["current_job"] == job.job_id
