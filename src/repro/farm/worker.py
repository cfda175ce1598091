"""The farm worker: a claim → emulate-or-replay → record loop.

A :class:`FarmWorker` drains jobs from anything that speaks the queue
protocol — a local :class:`~repro.farm.queue.JobQueue` on a shared
directory, or a :class:`~repro.farm.client.FarmClient` talking HTTP to
a remote :class:`~repro.farm.service.FarmService` — and executes each
scenario through the existing
:class:`~repro.scenario.runner.Runner` with the shared
:class:`~repro.trace.store.TraceStore` attached.  That single reuse
buys the whole record-once/replay-many machinery: a store hit replays
the recorded boundary stream through the thermal solver; a miss
emulates live, records, and files the archive for every later worker
and client.

While a job runs, a daemon thread heartbeats it every ``heartbeat_s``
seconds; a worker that dies mid-job simply stops beating and the queue
requeues the job after its heartbeat timeout.  Failures surface as the
Runner's ``status="failed"`` results — error string plus captured
traceback — and feed the queue's retry/backoff bookkeeping as a
structured failure log.

:func:`worker_main` is the process/CLI entry point
(``python -m repro farm work``); :class:`~repro.farm.local.LocalFarm`
spawns it N times over one queue directory.
"""

import os
import threading
import time


#: Capability tags every stock worker advertises.
DEFAULT_CAPABILITIES = ("emulate", "replay")


class FarmWorker:
    """One worker process' control loop.

    ``queue`` must provide ``claim / heartbeat / complete / fail /
    drained / register_worker`` (both :class:`JobQueue` and
    :class:`FarmClient` do).  ``store`` is the shared trace store the
    Runner dedupes through; ``None`` disables replay dedup (every job
    emulates).  ``stop_when_idle`` exits the loop once the queue is
    drained — the mode batch helpers use; a service-attached worker
    normally runs until stopped.
    """

    def __init__(self, queue, store=None, worker_id=None,
                 capabilities=DEFAULT_CAPABILITIES, heartbeat_s=1.0,
                 poll_s=0.2, stop_when_idle=False, max_jobs=None,
                 log=None):
        if store is None:
            # A local JobQueue already knows the farm's shared store.
            store = getattr(queue, "store", None)
        else:
            from repro.trace.store import TraceStore

            if not isinstance(store, TraceStore):
                store = TraceStore(store)
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.capabilities = tuple(capabilities or ())
        self.heartbeat_s = float(heartbeat_s)
        self.poll_s = float(poll_s)
        self.stop_when_idle = stop_when_idle
        self.max_jobs = max_jobs
        self.log = log or (lambda message: None)
        self.jobs_done = 0
        self.report_backoff_s = 0.2
        self._stop = threading.Event()

    def stop(self):
        """Ask the loop to exit after the in-flight job."""
        self._stop.set()

    # -- the loop ----------------------------------------------------------
    #: Consecutive claim failures tolerated before the loop gives up —
    #: rides out a service restart without looping forever against a
    #: farm that is really gone.
    MAX_CLAIM_ERRORS = 10

    def run_forever(self):
        """Claim and run jobs until stopped (or idle, if configured);
        returns the number of jobs processed."""
        self.queue.register_worker(self.worker_id, self.capabilities)
        claim_errors = 0
        while not self._stop.is_set():
            try:
                job = self.queue.claim(self.worker_id, self.capabilities)
            except Exception as exc:  # transient service blip: back off
                claim_errors += 1
                if claim_errors >= self.MAX_CLAIM_ERRORS:
                    raise
                self.log(f"{self.worker_id}: claim failed ({exc}); retrying")
                self._stop.wait(self.poll_s * claim_errors)
                continue
            claim_errors = 0
            if job is None:
                if self.stop_when_idle and self.queue.drained():
                    break
                self._stop.wait(self.poll_s)
                continue
            self.run_one(job)
            self.jobs_done += 1
            progress = getattr(self.queue, "worker_heartbeat", None)
            if progress is not None:
                try:  # progress is best-effort bookkeeping
                    progress(self.worker_id, jobs_done=self.jobs_done)
                except Exception:
                    pass
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
        return self.jobs_done

    def run_one(self, job):
        """Execute one claimed job and report its outcome to the queue.

        The job runs under a fresh per-job :class:`SpanTracer`, so the
        report's ``extras["farm"]["spans"]`` carries the job's own span
        summary (the ``farm.job`` span plus the nested runner/window
        spans) without mixing in other jobs on the same worker.
        """
        from repro.obs import tracing as obs_tracing
        from repro.obs.timeline import RunTimeline
        from repro.scenario.runner import Runner

        self.log(f"{self.worker_id}: running {job.job_id} ({job.name})")
        beat = _Heartbeat(self.queue, job.job_id, self.worker_id,
                          self.heartbeat_s)
        beat.start()
        tracer = obs_tracing.SpanTracer()
        try:
            with obs_tracing.activate(tracer):
                with tracer.span(
                    "farm.job", job_id=job.job_id,
                    worker=self.worker_id, attempt=job.attempts + 1,
                ):
                    runner = Runner(trace_store=self.store)
                    [result] = runner.run([job.scenario])
        except Exception as exc:  # queue/store plumbing, not the scenario
            import traceback as traceback_module

            beat.stop()
            self._report(job.job_id, lambda: self.queue.fail(
                job.job_id,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
                worker=self.worker_id,
            ))
            return None
        beat.stop()
        if not result.ok:
            self.log(f"{self.worker_id}: {job.job_id} failed: {result.error}")
            self._report(job.job_id, lambda: self.queue.fail(
                job.job_id,
                error=result.error,
                traceback=result.traceback,
                worker=self.worker_id,
            ))
            return result
        result.report.extras["farm"] = self._provenance(job, result)
        result.report.extras["farm"]["spans"] = RunTimeline(tracer.events).summary()
        self._report(job.job_id, lambda: self.queue.complete(
            job.job_id, result.to_dict(), worker=self.worker_id
        ))
        self.log(
            f"{self.worker_id}: {job.job_id} done "
            f"({result.report.extras['farm']['mode']})"
        )
        return result

    def _report(self, job_id, deliver, retries=3):
        """Deliver a complete/fail report, riding out a momentary
        service blip.  A report that still cannot land is logged and
        dropped — the queue's heartbeat-timeout requeue recovers the
        job — instead of crashing the worker with the result in hand."""
        last = None
        for attempt in range(retries):
            try:
                return deliver()
            except Exception as exc:
                last = exc
                if self._stop.is_set():
                    break
                time.sleep(self.report_backoff_s * (attempt + 1))
        self.log(
            f"{self.worker_id}: could not report {job_id} "
            f"after {retries} tries: {last}"
        )
        return None

    def _provenance(self, job, result):
        """The ``extras["farm"]`` record stamped into every report: who
        ran the job, which attempt, and whether the boundary stream was
        emulated live or answered from the shared store."""
        return {
            "job_id": job.job_id,
            "worker": self.worker_id,
            "attempt": job.attempts + 1,
            "mode": "replayed" if result.replayed else "emulated",
            "trace_digest": job.trace_digest,
            "store": (
                None if self.store is None
                else "memory" if self.store.in_memory
                else str(self.store.root)
            ),
        }


class _Heartbeat:
    """A daemon thread beating one running job's heart."""

    def __init__(self, queue, job_id, worker_id, interval_s):
        self.queue = queue
        self.job_id = job_id
        self.worker_id = worker_id
        self.interval_s = interval_s
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._done.set()
        self._thread.join(timeout=5.0)

    def _run(self):
        while not self._done.wait(self.interval_s):
            try:
                if not self.queue.heartbeat(self.job_id, self.worker_id):
                    return  # ownership lost; the new owner beats now
            except Exception:
                pass  # a missed beat is recoverable; a crash is not


def worker_main(queue_root=None, store_root=None, url=None, worker_id=None,
                capabilities=DEFAULT_CAPABILITIES, heartbeat_s=1.0,
                poll_s=0.2, stop_when_idle=False, max_jobs=None,
                heartbeat_timeout=10.0, verbose=False):
    """Run one worker to completion — the ``multiprocessing`` /
    ``python -m repro farm work`` entry point.

    Attach either to a queue directory (``queue_root`` [+
    ``store_root``], the local shared-filesystem deployment) or to a
    running service (``url``); with ``url``, ``store_root`` may still
    name a shared store directory so remote-claimed jobs dedupe too.
    """
    if (queue_root is None) == (url is None):
        raise ValueError("pass exactly one of queue_root or url")
    from repro.trace.store import TraceStore

    store = TraceStore(store_root) if store_root is not None else None
    if url is not None:
        from repro.farm.client import FarmClient

        queue = FarmClient(url)
    else:
        from repro.farm.queue import JobQueue

        queue = JobQueue(
            queue_root, store=store, heartbeat_timeout=heartbeat_timeout
        )
    worker = FarmWorker(
        queue,
        store=store,
        worker_id=worker_id,
        capabilities=capabilities,
        heartbeat_s=heartbeat_s,
        poll_s=poll_s,
        stop_when_idle=stop_when_idle,
        max_jobs=max_jobs,
        log=print if verbose else None,
    )
    # A worker process must never die to SIGTERM mid-transition with the
    # queue lock held in an unknown state; the loop exits cleanly.
    try:
        import signal

        signal.signal(signal.SIGTERM, lambda *_: worker.stop())
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    return worker.run_forever()
