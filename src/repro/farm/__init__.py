"""Distributed emulation run-farm — many workers, one answer store.

The paper's pitch is throughput: thermal emulation "as fast as the
hardware allows".  :mod:`repro.farm` scales the single-host
:class:`~repro.scenario.runner.Runner` into a FireSim-style fleet
service built from four pieces:

* :mod:`repro.farm.jobs` / :mod:`repro.farm.queue` — a persistent,
  file-backed job queue with idempotent content-derived job IDs,
  priorities, capability tags, retry-with-backoff, heartbeat-timeout
  requeue, and *digest leases* (one live emulation per unique
  boundary-stream digest across the whole fleet);
* :mod:`repro.farm.worker` — the claim → emulate-or-replay → record
  worker loop, reusing ``Runner(trace_store=...)`` so store hits
  replay instead of re-emulating;
* :mod:`repro.farm.service` / :mod:`repro.farm.client` — an HTTP/JSON
  submission API (stdlib only) speaking lossless ``Scenario.to_dict``
  JSON, so any PR 1 sweep submits unchanged;
* :mod:`repro.farm.local` — the one-machine deployment: N worker
  processes over one queue and one shared, sharded, concurrency-safe
  :class:`~repro.trace.store.TraceStore`.

``python -m repro farm serve|submit|status|workers|work`` is the CLI
front-end; see ``docs/farm.md`` for the architecture and deployment
recipes.
"""
