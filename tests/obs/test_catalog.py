"""The observability catalog: every name listed literally.

This module is the double-entry side of the ``registry-coverage`` lint
rule: each metric and span registered in ``repro.obs.catalog`` must be
referenced by a test, and the literal lists below are that reference.
Adding a name to the catalog without adding it here (and to
``docs/observability.md``) fails this test; removing one without
pruning here fails too.
"""

import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc.asm import assemble
from repro.mpsoc.platform import SHARED_BASE, build_platform
from repro.obs import catalog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from tests.conftest import small_config

EXPECTED_METRICS = [
    "repro_emulation_blocks_total",
    "repro_emulation_calibration_hits_total",
    "repro_emulation_calibration_misses_total",
    "repro_emulation_schedule_decisions_total",
    "repro_emulation_shared_accesses_total",
    "repro_emulation_tie_resolutions_total",
    "repro_farm_claim_latency_seconds",
    "repro_farm_claims_total",
    "repro_farm_emulated_jobs",
    "repro_farm_job_attempts",
    "repro_farm_jobs",
    "repro_farm_queue_depth",
    "repro_farm_replayed_jobs",
    "repro_farm_requeues_total",
    "repro_farm_retries_total",
    "repro_farm_store_hit_ratio",
    "repro_farm_worker_heartbeat_age_seconds",
    "repro_farm_workers",
    "repro_run_phase_seconds_total",
    "repro_run_windows_total",
    "repro_runner_batch_size",
    "repro_runner_batches_total",
    "repro_runner_scenarios_total",
    "repro_runner_worker_utilization_ratio",
    "repro_solver_factorizations_total",
    "repro_solver_reuses_total",
    "repro_solver_solves_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_store_puts_total",
]

EXPECTED_SPANS = [
    "emulation.calibrate",
    "farm.job",
    "run",
    "runner.batch",
    "runner.plan",
    "runner.scenario",
    "runner.setup",
    "window.dispatch",
    "window.emulate",
    "window.other",
    "window.power",
    "window.solve",
]


def test_metric_catalog_is_exactly_the_expected_list():
    assert catalog.metric_names() == EXPECTED_METRICS


def test_span_catalog_is_exactly_the_expected_list():
    assert catalog.span_names() == EXPECTED_SPANS


def test_every_name_has_a_description():
    for name in EXPECTED_METRICS + EXPECTED_SPANS:
        assert catalog.describe(name)


def test_helpers_reject_uncataloged_names():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        catalog.counter("repro_not_a_metric_total", registry=registry)
    with pytest.raises(ValueError):
        catalog.gauge("repro_not_a_gauge", registry=registry)
    with pytest.raises(ValueError):
        catalog.histogram("repro_not_a_histogram", registry=registry)


def test_helpers_declare_into_injected_registry():
    registry = MetricsRegistry()
    counter = catalog.counter(
        "repro_store_hits_total", registry=registry
    )
    gauge = catalog.gauge("repro_farm_queue_depth", registry=registry)
    histogram = catalog.histogram(
        "repro_farm_claim_latency_seconds", registry=registry
    )
    assert isinstance(counter, Counter)
    assert isinstance(gauge, Gauge)
    assert isinstance(histogram, Histogram)
    assert registry.get("repro_store_hits_total") is counter
    # HELP text comes from the catalog description.
    assert counter.help == catalog.describe("repro_store_hits_total")


def test_engine_counts_its_decisions_and_ties():
    # Two identical programs start together: a tie at cycle 0, and the
    # cores meet at their shared loads, not at every instruction.
    program = assemble(f"""
        main:   li   r7, 20
                li   r8, {SHARED_BASE}
        loop:   lw   r1, 0(r8)
                addi r2, r2, 1
                addi r3, r3, 2
                addi r7, r7, -1
                bne  r7, r0, loop
                halt
    """)
    platform = build_platform(small_config(2))
    for index in range(2):
        platform.load_program(index, program)
    decisions = catalog.counter("repro_emulation_schedule_decisions_total")
    ties = catalog.counter("repro_emulation_tie_resolutions_total")
    blocks = catalog.counter("repro_emulation_blocks_total")
    shared = catalog.counter("repro_emulation_shared_accesses_total")
    before = [metric.value for metric in (decisions, ties, blocks, shared)]
    executed, _ = EventDrivenEngine(platform).run_to_completion()
    made = [metric.value - was
            for metric, was in zip((decisions, ties, blocks, shared), before)]
    assert made[1] >= 1
    assert 2 <= made[0] < executed / 2
    # Each decision calls a block or more, each block runs instructions;
    # every one of the 2 x 20 shared loads goes through the bus port.
    assert made[0] <= made[2] < executed
    assert made[3] == 2 * 20
