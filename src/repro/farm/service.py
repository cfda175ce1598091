"""The farm's HTTP/JSON submission API (stdlib ``http.server`` only).

:class:`FarmService` fronts one :class:`~repro.farm.queue.JobQueue`
with a small REST surface, so any client that can POST JSON — a PR 1
sweep script, ``python -m repro farm submit``, a remote worker — talks
to the farm without importing it.  Scenarios travel as their lossless
``Scenario.to_dict()`` JSON, verbatim.

============================  ==========================================
Route                         Meaning
============================  ==========================================
``GET  /metrics``             Prometheus text (see docs/observability.md)
``GET  /api/status``          queue counts, worker count, store size
``GET  /api/jobs[?state=s]``  every job record (optionally one state)
``GET  /api/jobs/<id>``       one full job record
``POST /api/jobs``            submit ``{"scenarios": [...], ...}``
``GET  /api/workers``         the worker registry
``POST /api/workers``         register ``{"worker", "capabilities"}``, or
                              beat/report progress ``{"worker",
                              "heartbeat": true[, "jobs_done"]}``
``POST /api/claim``           claim for ``{"worker", "capabilities"}``
``POST /api/jobs/<id>/heartbeat``  liveness beat ``{"worker"}``
``POST /api/jobs/<id>/complete``   finish ``{"worker", "result"}``
``POST /api/jobs/<id>/fail``       fail ``{"worker", "error", ...}``
============================  ==========================================

The server is a ``ThreadingHTTPServer``: requests execute queue
transitions concurrently, which is safe because every transition runs
under the queue's cross-process file lock.
"""

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


#: How often ``serve_forever`` checks for :meth:`FarmService.stop`; the
#: socketserver default (0.5 s) is the worst-case wait on every stop.
_SHUTDOWN_POLL_S = 0.02

_JOB_ROUTE = re.compile(r"^/api/jobs/(?P<job_id>[0-9a-f]{8,64})"
                        r"(?:/(?P<action>heartbeat|complete|fail))?$")


class FarmAPIError(Exception):
    """A request the API rejects (bad route, bad payload)."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class _FarmRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning service's queue."""

    server_version = "repro-farm/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    @property
    def queue(self):
        return self.server.farm_queue

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log = self.server.farm_log
        if log:
            log(f"{self.address_string()} {format % args}")

    def _payload(self):
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        try:
            return json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise FarmAPIError(400, f"request body is not JSON: {exc}")

    def _reply(self, payload, status=200):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, handler):
        try:
            self._reply(handler())
        except FarmAPIError as exc:
            self._reply({"error": str(exc)}, status=exc.status)
        except Exception as exc:  # surface, don't kill the server thread
            self._reply(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )

    # -- verbs -------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        if self.path.partition("?")[0] == "/metrics":
            # Prometheus text, not JSON — served outside _dispatch.
            self._metrics()
            return
        self._dispatch(lambda: self._get(self.path))

    def _metrics(self):
        """``GET /metrics``: Prometheus text exposition of the default
        registry, with the farm gauges recomputed from the on-disk
        queue right before rendering (so other processes' workers and
        claims are visible)."""
        try:
            from repro.farm.metrics import refresh_queue_metrics

            registry = refresh_queue_metrics(self.queue)
            body = registry.render_prometheus().encode("utf-8")
            status = 200
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        except Exception as exc:  # surface, don't kill the server thread
            body = f"# metrics unavailable: {exc}\n".encode("utf-8")
            status = 500
            content_type = "text/plain; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch(lambda: self._post(self.path, self._payload()))

    # -- routes ------------------------------------------------------------
    def _get(self, path):
        path, _, query = path.partition("?")
        if path == "/api/status":
            return self.queue.status()
        if path == "/api/workers":
            return {"workers": self.queue.workers()}
        if path == "/api/jobs":
            state = None
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key == "state" and value:
                    state = value
            try:
                jobs = self.queue.jobs(state=state)
            except ValueError as exc:
                raise FarmAPIError(400, str(exc))
            return {"jobs": [job.to_dict() for job in jobs]}
        match = _JOB_ROUTE.match(path)
        if match and not match.group("action"):
            job = self.queue.get(match.group("job_id"))
            if job is None:
                raise FarmAPIError(404, f"no job {match.group('job_id')}")
            return {"job": job.to_dict()}
        raise FarmAPIError(404, f"unknown route GET {path}")

    def _post(self, path, payload):
        if path == "/api/jobs":
            return self._submit(payload)
        if path == "/api/claim":
            job = self.queue.claim(
                self._required(payload, "worker"),
                capabilities=payload.get("capabilities"),
            )
            return {"job": job.to_dict() if job else None}
        if path == "/api/workers":
            worker = self._required(payload, "worker")
            if payload.get("heartbeat") or payload.get("jobs_done") is not None:
                return self.queue.worker_heartbeat(
                    worker, jobs_done=payload.get("jobs_done")
                )
            return self.queue.register_worker(
                worker, payload.get("capabilities") or ()
            )
        match = _JOB_ROUTE.match(path)
        if match and match.group("action"):
            return self._job_action(
                match.group("job_id"), match.group("action"), payload
            )
        raise FarmAPIError(404, f"unknown route POST {path}")

    @staticmethod
    def _required(payload, key):
        value = payload.get(key)
        if not value:
            raise FarmAPIError(400, f"request body needs {key!r}")
        return value

    def _submit(self, payload):
        scenarios = payload.get("scenarios")
        if scenarios is None and "scenario" in payload:
            scenarios = [payload["scenario"]]
        if not isinstance(scenarios, list) or not scenarios:
            raise FarmAPIError(
                400, 'submit body needs "scenarios": [scenario dicts]'
            )
        options = {
            key: payload[key]
            for key in (
                "priority", "tags", "max_retries", "retry_backoff_s",
                "retry_failed",
            )
            if key in payload
        }
        try:
            jobs = self.queue.submit_many(scenarios, **options)
        except (ValueError, KeyError, TypeError) as exc:
            raise FarmAPIError(400, f"bad scenario: {exc}")
        return {"jobs": [job.to_dict() for job in jobs]}

    def _job_action(self, job_id, action, payload):
        worker = payload.get("worker")
        if action == "heartbeat":
            owned = self.queue.heartbeat(
                job_id, self._required(payload, "worker")
            )
            return {"owned": owned}
        if action == "complete":
            job = self.queue.complete(
                job_id, payload.get("result"), worker=worker
            )
        else:  # fail
            job = self.queue.fail(
                job_id,
                error=payload.get("error", "unspecified failure"),
                traceback=payload.get("traceback"),
                worker=worker,
            )
        return {"job": job.to_dict() if job else None}


class FarmService:
    """One farm queue behind an HTTP endpoint.

    ``FarmService(queue).start()`` serves on a background thread and
    returns the bound URL (``port=0`` picks a free port — tests and the
    in-process smoke gate rely on that); :meth:`serve_forever` is the
    blocking CLI mode.
    """

    def __init__(self, queue, host="127.0.0.1", port=0, log=None):
        self.queue = queue
        self._server = ThreadingHTTPServer((host, port), _FarmRequestHandler)
        self._server.farm_queue = queue
        self._server.farm_log = log
        self._thread = None

    @property
    def host(self):
        return self._server.server_address[0]

    @property
    def port(self):
        return self._server.server_address[1]

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Serve on a daemon thread; returns the service URL."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self.url

    def serve_forever(self):
        self._server.serve_forever(poll_interval=_SHUTDOWN_POLL_S)

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
