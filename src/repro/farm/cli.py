"""``python -m repro farm`` — drive a run-farm from the command line.

Subcommands::

    farm serve  [--queue DIR] [--store DIR] [--host H] [--port P]
                [--workers N]          # HTTP service (+ optional fleet)
    farm submit SPEC [SPEC ...] [--url URL | --queue DIR] [--wait]
                [--priority P] [--retry-failed] [--json]
    farm status [--url URL | --queue DIR] [--json]
    farm workers [--url URL | --queue DIR] [--json]
    farm work   [--url URL | --queue DIR] [--store DIR] [--id NAME]
                [--capability TAG ...] [--stop-when-idle] [--max-jobs N]

``SPEC`` is anything the main CLI runs: a scenario/suite JSON file or
a preset name.  Submission targets either a running service
(``--url``) or a queue directory on a shared filesystem (``--queue``,
default ``.repro-farm``) — the two deployment shapes described in
``docs/farm.md``.
"""

import argparse
import json
import sys

from repro.farm.queue import DEFAULT_QUEUE_DIR


def _add_target_options(parser, with_store=False):
    parser.add_argument(
        "--url", metavar="URL",
        help="a running farm service (http://host:port)",
    )
    parser.add_argument(
        "--queue", metavar="DIR", default=None,
        help=f"a queue directory on a shared filesystem "
        f"(default {DEFAULT_QUEUE_DIR})",
    )
    if with_store:
        parser.add_argument(
            "--store", metavar="DIR", default=None,
            help="shared trace-store directory (default <queue>/../store "
            "next to a --queue dir)",
        )


def _store_root(args):
    if getattr(args, "store", None):
        return args.store
    if args.url:
        return None
    import pathlib

    return str(pathlib.Path(args.queue or DEFAULT_QUEUE_DIR).parent / "store")


def _target(args):
    """The queue-protocol object the subcommand talks to."""
    if args.url:
        from repro.farm.client import FarmClient

        return FarmClient(args.url)
    from repro.farm.queue import JobQueue
    from repro.trace.store import TraceStore

    return JobQueue(
        args.queue or DEFAULT_QUEUE_DIR, store=TraceStore(_store_root(args))
    )


# -- subcommands -----------------------------------------------------------
def _serve(args):
    from repro.farm.queue import JobQueue
    from repro.farm.service import FarmService
    from repro.trace.store import TraceStore

    queue = JobQueue(
        args.queue or DEFAULT_QUEUE_DIR,
        store=TraceStore(_store_root(args)),
        heartbeat_timeout=args.heartbeat_timeout,
    )
    service = FarmService(
        queue, host=args.host, port=args.port,
        log=print if args.verbose else None,
    )
    workers = []
    print(f"farm service at {service.url} "
          f"(queue {queue.root}, store {queue.store.root})")
    if args.workers:
        import multiprocessing

        from repro.farm.worker import worker_main
        from repro.util.processes import start_method

        ctx = multiprocessing.get_context(start_method())
        for i in range(args.workers):
            process = ctx.Process(
                target=worker_main,
                kwargs={
                    "queue_root": str(queue.root),
                    "store_root": str(queue.store.root),
                    "worker_id": f"serve-{i}",
                    "heartbeat_timeout": args.heartbeat_timeout,
                },
                daemon=True,
            )
            process.start()
            workers.append(process)
        print(f"started {len(workers)} local worker(s)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        for process in workers:
            if process.is_alive():
                process.terminate()
    return 0


def _submit(args):
    from repro.scenario.presets import load_scenarios

    target = _target(args)
    try:
        scenarios = [s for spec in args.specs for s in load_scenarios(spec)]
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = {"priority": args.priority, "retry_failed": args.retry_failed}
    if args.url:  # the service applies defaults for the rest
        jobs = target.submit([s.to_dict() for s in scenarios], **options)
    else:
        jobs = target.submit_many(scenarios, **options)
    if args.wait:
        jobs = _wait(target, [job.job_id for job in jobs], args.timeout)
    if args.as_json:
        print(json.dumps([job.to_dict() for job in jobs], indent=2))
    else:
        for job in jobs:
            print(job.summary())
    failed = [job for job in jobs if job.state == "failed"]
    return 1 if failed else 0


def _wait(target, job_ids, timeout):
    if hasattr(target, "wait"):  # FarmClient
        jobs = target.wait(job_ids, timeout=timeout)
        return [jobs[jid] for jid in job_ids]
    import time

    deadline = time.monotonic() + timeout
    while True:
        jobs = [target.get(jid) for jid in job_ids]
        if all(job is not None and job.terminal for job in jobs):
            return jobs
        if time.monotonic() >= deadline:
            raise TimeoutError(f"jobs not finished within {timeout:g} s")
        target.requeue_stale()
        time.sleep(0.25)


def _status(args):
    target = _target(args)
    status = target.status()
    if args.as_json:
        jobs = target.jobs()
        status["job_records"] = [job.to_dict() for job in jobs]
        print(json.dumps(status, indent=2))
        return 0
    counts = status["jobs"]
    line = ", ".join(f"{state} {counts.get(state, 0)}" for state in counts)
    print(f"queue {status['root']}: {line}")
    store = status.get("store")
    if store:
        print(f"store {store['root']}: {store['entries']} recorded trace(s)")
    print(f"workers: {status.get('workers', 0)}")
    for job in target.jobs():
        print(f"  {job.summary()}")
    return 0


def _workers(args):
    import time

    target = _target(args)
    rows = target.workers()
    # Current job per worker, so the listing answers "what is it doing"
    # without a separate `farm status` cross-reference.
    running = {
        job.worker: job.job_id
        for job in target.jobs("running")
        if job.worker
    }
    now = time.time()
    for record in rows:
        beat = record.get("heartbeat_at") or record.get("registered_at")
        record["last_heartbeat_age_s"] = (
            round(max(0.0, now - beat), 3) if beat is not None else None
        )
        record["current_job"] = running.get(record["worker"])
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no workers registered")
        return 0
    for record in rows:
        capabilities = ",".join(record.get("capabilities") or ()) or "-"
        age = record["last_heartbeat_age_s"]
        age_text = f"{age:.1f}s ago" if age is not None else "never"
        print(
            f"{record['worker']:20s} caps={capabilities:20s} "
            f"done={record.get('jobs_done', 0):<4d} "
            f"beat={age_text:12s} "
            f"job={record['current_job'] or '-'}"
        )
    return 0


def _work(args):
    from repro.farm.worker import worker_main

    jobs_done = worker_main(
        queue_root=None if args.url else (args.queue or DEFAULT_QUEUE_DIR),
        store_root=_store_root(args),
        url=args.url,
        worker_id=args.id,
        capabilities=tuple(args.capability or ())
        or ("emulate", "replay"),
        stop_when_idle=args.stop_when_idle,
        max_jobs=args.max_jobs,
        heartbeat_timeout=args.heartbeat_timeout,
        verbose=args.verbose,
    )
    print(f"worker exited after {jobs_done} job(s)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro farm",
        description="Distributed emulation run-farm: job queue, workers "
        "and a shared trace store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP submission service")
    _add_target_options(serve, with_store=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=0,
        help="also start N local worker processes",
    )
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0)
    serve.add_argument("--verbose", "-v", action="store_true")
    serve.set_defaults(func=_serve)

    submit = sub.add_parser(
        "submit", help="submit scenario specs or presets as farm jobs"
    )
    submit.add_argument("specs", nargs="+", metavar="SPEC")
    _add_target_options(submit, with_store=True)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--retry-failed", action="store_true",
        help="resurrect an identical FAILED job instead of returning it",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until every submitted job finishes",
    )
    submit.add_argument("--timeout", type=float, default=300.0)
    submit.add_argument("--json", action="store_true", dest="as_json")
    submit.set_defaults(func=_submit)

    status = sub.add_parser("status", help="queue/store/worker summary")
    _add_target_options(status, with_store=True)
    status.add_argument("--json", action="store_true", dest="as_json")
    status.set_defaults(func=_status)

    workers = sub.add_parser("workers", help="list registered workers")
    _add_target_options(workers, with_store=True)
    workers.add_argument("--json", action="store_true", dest="as_json")
    workers.set_defaults(func=_workers)

    work = sub.add_parser("work", help="run one worker in the foreground")
    _add_target_options(work, with_store=True)
    work.add_argument("--id", help="worker id (default worker-<pid>)")
    work.add_argument(
        "--capability", action="append", metavar="TAG",
        help="capability tag (repeatable; default emulate,replay)",
    )
    work.add_argument("--stop-when-idle", action="store_true")
    work.add_argument("--max-jobs", type=int, default=None)
    work.add_argument("--heartbeat-timeout", type=float, default=10.0)
    work.add_argument("--verbose", "-v", action="store_true")
    work.set_defaults(func=_work)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
