"""repro.obs — unified metrics, tracing, and profiling layer.

Three pieces, all stdlib-only:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram families with
  labels, a process-wide default :data:`~repro.obs.metrics.REGISTRY`,
  and Prometheus-text / JSON exporters.
* :mod:`repro.obs.tracing` — ``span(name, **attrs)`` context manager
  producing a JSONL event log; off by default (the hot paths check
  :func:`~repro.obs.tracing.current` and skip all work when no tracer
  is active).
* :mod:`repro.obs.timeline` — :class:`~repro.obs.timeline.RunTimeline`
  folds a span log into the per-phase summary that backs
  ``RunReport.extras["timing"]``, the ``obs timeline`` CLI, and the
  ``obs_overview`` report artifact.

:mod:`repro.obs.catalog` is the single source of truth for metric and
span names; the ``registry-coverage`` lint rule holds every cataloged
name to the same tested-and-documented bar as workloads and solver
backends.  See ``docs/observability.md``.
"""
