"""A self-contained N-worker farm on one machine.

:class:`LocalFarm` wires the pieces together for the common
deployment: one queue directory, one shared sharded
:class:`~repro.trace.store.TraceStore`, and N worker *processes*
spawned from :func:`~repro.farm.worker.worker_main`.  It is what the
``farm_demo`` example and the acceptance tests drive — and the
template for a real multi-host deployment, where the same queue/store
directories live on a shared filesystem (or
behind a :class:`~repro.farm.service.FarmService`) and each host runs
``python -m repro farm work``.
"""

import multiprocessing
import pathlib
import time

from repro.farm.queue import JobQueue
from repro.farm.worker import DEFAULT_CAPABILITIES, worker_main
from repro.trace.store import TraceStore
from repro.util.processes import start_method


class LocalFarm:
    """One queue + shared store + N local worker processes.

    ``LocalFarm(base_dir, workers=4)`` lays out ``<base>/queue`` and
    ``<base>/store``; :meth:`run` is the batch front-end (submit,
    drain, return finished jobs) and :meth:`start`/:meth:`stop` manage
    long-lived workers around an external submitter.
    """

    def __init__(self, base_dir, workers=4, heartbeat_timeout=10.0,
                 heartbeat_s=0.5, poll_s=0.05,
                 capabilities=DEFAULT_CAPABILITIES, store_dir=None):
        self.base_dir = pathlib.Path(base_dir)
        self.queue_root = self.base_dir / "queue"
        # store_dir points several farms at one shared (possibly warm)
        # store — the multi-host shape on a shared filesystem.
        self.store_root = (
            pathlib.Path(store_dir) if store_dir else self.base_dir / "store"
        )
        self.workers = int(workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.heartbeat_s = float(heartbeat_s)
        self.poll_s = float(poll_s)
        self.capabilities = tuple(capabilities)
        self.store = TraceStore(self.store_root)
        self.queue = JobQueue(
            self.queue_root, store=self.store,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        self._ctx = multiprocessing.get_context(start_method())
        self._processes = []

    # -- submission --------------------------------------------------------
    def submit(self, scenarios, **options):
        """File scenarios (objects or dicts); returns ``list[Job]``."""
        if not isinstance(scenarios, (list, tuple)):
            scenarios = [scenarios]
        return self.queue.submit_many(scenarios, **options)

    # -- worker lifecycle --------------------------------------------------
    def spawn_worker(self, worker_id=None, stop_when_idle=True):
        """Start one worker process; returns the ``Process``."""
        worker_id = worker_id or f"local-{len(self._processes)}"
        process = self._ctx.Process(
            target=worker_main,
            kwargs={
                "queue_root": str(self.queue_root),
                "store_root": str(self.store_root),
                "worker_id": worker_id,
                "capabilities": self.capabilities,
                "heartbeat_s": self.heartbeat_s,
                "poll_s": self.poll_s,
                "stop_when_idle": stop_when_idle,
                "heartbeat_timeout": self.heartbeat_timeout,
            },
            name=worker_id,
            daemon=True,
        )
        process.start()
        self._processes.append(process)
        return process

    def start(self, stop_when_idle=True):
        """Spawn the full worker fleet."""
        for _ in range(self.workers):
            self.spawn_worker(stop_when_idle=stop_when_idle)
        return self._processes

    def join(self, timeout=None):
        """Wait for every worker process to exit."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for process in self._processes:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            process.join(remaining)

    def stop(self):
        """Terminate any still-running workers (idempotent)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        self._processes = []

    # -- the batch front-end -----------------------------------------------
    def run(self, scenarios, timeout=300.0, **submit_options):
        """Submit a batch, drain it through the fleet, return the
        finished ``list[Job]`` in submission order.

        Workers run with ``stop_when_idle`` and exit once the queue is
        drained; jobs that exhaust their retries come back FAILED (this
        method does not raise for them — callers inspect ``job.state``).
        """
        jobs = self.submit(scenarios, **submit_options)
        self.start(stop_when_idle=True)
        deadline = time.monotonic() + timeout
        try:
            while not self.queue.drained():
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"farm did not drain {len(jobs)} job(s) within "
                        f"{timeout:g} s"
                    )
                # Self-heal even if every worker died mid-job.
                self.queue.requeue_stale()
                if not any(p.is_alive() for p in self._processes):
                    if self.queue.drained():
                        break
                    raise RuntimeError(
                        "all farm workers exited with jobs still queued"
                    )
                time.sleep(0.05)
            self.join(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            self.stop()
        return [self.queue.get(job.job_id) for job in jobs]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
