"""The canonical catalog of metric and span names.

Every metric the instrumentation records and every span name the
tracers emit is registered here — and *only* here — so the
``registry-coverage`` lint rule can statically require each name to be
documented (``docs/observability.md``) and exercised by a test module
(``tests/obs/test_catalog.py``).  Instrumentation sites declare their
families through the :func:`counter` / :func:`gauge` / :func:`histogram`
helpers below, which reject uncataloged names, so catalog and call
sites cannot drift.

The registered value is the human-readable help/description string;
metric declarations (kind, labels, buckets) live with the helpers at
the bottom, which declare lazily into a target registry so injectable
registries get the same families as the process-wide default.
"""

from repro.util.registry import Registry

OBS_METRICS: Registry[str] = Registry("obs metric")
OBS_SPANS: Registry[str] = Registry("obs span")

# -- metric names ----------------------------------------------------------
# Framework / run loop
OBS_METRICS.register(
    "repro_run_windows_total",
    "Sampling windows executed across all runs in this process",
)
OBS_METRICS.register(
    "repro_run_phase_seconds_total",
    "Wall seconds spent per run phase (label: phase)",
)
# Thermal solver backends
OBS_METRICS.register(
    "repro_solver_factorizations_total",
    "Matrix factorizations performed (label: backend)",
)
OBS_METRICS.register(
    "repro_solver_solves_total",
    "Backward-Euler solves performed (label: backend)",
)
OBS_METRICS.register(
    "repro_solver_reuses_total",
    "Solves that reused a cached factorization (label: backend)",
)
# Windowed-emulation calibration cache
OBS_METRICS.register(
    "repro_emulation_calibration_hits_total",
    "Windowed-backend calibration cache hits",
)
OBS_METRICS.register(
    "repro_emulation_calibration_misses_total",
    "Windowed-backend calibration cache misses (full measurements)",
)
# Event-driven engine scheduler
OBS_METRICS.register(
    "repro_emulation_schedule_decisions_total",
    "Event-driven engine scheduling decisions (core handoffs)",
)
OBS_METRICS.register(
    "repro_emulation_tie_resolutions_total",
    "Same-cycle ties the event-driven engine resolved from its logs",
)
# Event-driven engine interpreter
OBS_METRICS.register(
    "repro_emulation_blocks_total",
    "Translated basic blocks (or single steps) the event-driven engine's "
    "cores ran",
)
OBS_METRICS.register(
    "repro_emulation_shared_accesses_total",
    "Data accesses the event-driven engine's cores made through a range "
    "port (the shared memory)",
)
# Trace store
OBS_METRICS.register(
    "repro_store_hits_total",
    "TraceStore lookups that found a recorded trace",
)
OBS_METRICS.register(
    "repro_store_misses_total",
    "TraceStore lookups that found nothing",
)
OBS_METRICS.register(
    "repro_store_puts_total",
    "Trace archives written into the TraceStore",
)
# Runner
OBS_METRICS.register(
    "repro_runner_scenarios_total",
    "Scenarios executed (label: mode = emulated|replayed|failed)",
)
OBS_METRICS.register(
    "repro_runner_batches_total",
    "Runner batches executed",
)
OBS_METRICS.register(
    "repro_runner_batch_size",
    "Scenarios per runner batch (histogram)",
)
OBS_METRICS.register(
    "repro_runner_worker_utilization_ratio",
    "Sum of per-scenario wall over workers x batch wall, last batch",
)
# Farm: in-process queue counters
OBS_METRICS.register(
    "repro_farm_claims_total",
    "Queue claim attempts (label: outcome = job|empty)",
)
OBS_METRICS.register(
    "repro_farm_claim_latency_seconds",
    "Submit-to-claim latency of claimed jobs (histogram)",
)
OBS_METRICS.register(
    "repro_farm_retries_total",
    "Failed jobs re-queued for another attempt",
)
OBS_METRICS.register(
    "repro_farm_requeues_total",
    "Running jobs re-queued after a heartbeat timeout",
)
# Farm: scrape-time gauges refreshed from the on-disk queue
OBS_METRICS.register(
    "repro_farm_jobs",
    "Jobs currently in each queue state (label: state)",
)
OBS_METRICS.register(
    "repro_farm_queue_depth",
    "Jobs waiting to be claimed (submitted and eligible)",
)
OBS_METRICS.register(
    "repro_farm_workers",
    "Workers in the registry",
)
OBS_METRICS.register(
    "repro_farm_worker_heartbeat_age_seconds",
    "Seconds since each worker's last heartbeat (label: worker)",
)
OBS_METRICS.register(
    "repro_farm_job_attempts",
    "Finished attempts (completions + failures) summed over all jobs",
)
OBS_METRICS.register(
    "repro_farm_store_hit_ratio",
    "Fraction of done jobs that replayed a stored trace",
)
OBS_METRICS.register(
    "repro_farm_replayed_jobs",
    "Done jobs that replayed a stored trace",
)
OBS_METRICS.register(
    "repro_farm_emulated_jobs",
    "Done jobs that ran a fresh emulation",
)

# -- span names ------------------------------------------------------------
OBS_SPANS.register(
    "run",
    "One ThermalSide.run() (a live run or a replay): the full window loop",
)
OBS_SPANS.register(
    "window.emulate",
    "Per-window functional emulation (instruction/event stream)",
)
OBS_SPANS.register(
    "window.power",
    "Per-window activity-to-power conversion",
)
OBS_SPANS.register(
    "window.dispatch",
    "Per-window statistics dispatch (Ethernet/BRAM model)",
)
OBS_SPANS.register(
    "window.solve",
    "Per-window backward-Euler thermal solve",
)
OBS_SPANS.register(
    "window.other",
    "Per-window residual: sensors, policy feedback, bookkeeping",
)
OBS_SPANS.register(
    "runner.batch",
    "One Runner.run() or run_batched() invocation",
)
OBS_SPANS.register(
    "runner.scenario",
    "One scenario inside a runner batch",
)
OBS_SPANS.register(
    "runner.plan",
    "Runner planning (run and run_batched): parse, digest, store lookups, "
    "floorplan resolves",
)
OBS_SPANS.register(
    "runner.setup",
    "Runner set-up (run and run_batched): builds and replay set-ups; "
    "floorplans = distinct floorplans the batch resolved",
)
OBS_SPANS.register(
    "farm.job",
    "One farm job: claim-to-report on a FarmWorker",
)
OBS_SPANS.register(
    "emulation.calibrate",
    "Windowed-backend calibration measurement (cache miss)",
)


def metric_names():
    return OBS_METRICS.names()


def span_names():
    return OBS_SPANS.names()


def describe(name):
    """Help text for a cataloged metric or span name."""
    registry = OBS_METRICS if name in OBS_METRICS else OBS_SPANS
    return registry.get(name)


# -- catalog-backed declaration helpers ------------------------------------
# Instrumentation sites declare through these so (a) the name must be
# cataloged (unknown names raise) and (b) the Prometheus HELP line is
# the catalog description, keeping exposition and docs identical.


def _target(registry):
    from repro.obs import metrics

    return registry if registry is not None else metrics.REGISTRY


def counter(name, labels=(), registry=None):
    return _target(registry).counter(name, OBS_METRICS.get(name), labels)


def gauge(name, labels=(), registry=None):
    return _target(registry).gauge(name, OBS_METRICS.get(name), labels)


def histogram(name, labels=(), buckets=None, registry=None):
    return _target(registry).histogram(
        name, OBS_METRICS.get(name), labels, buckets=buckets
    )
