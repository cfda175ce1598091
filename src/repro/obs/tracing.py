"""Span-based tracing: nested timed regions logged as JSONL events.

A :class:`SpanTracer` records *spans* — named regions with wall and CPU
time, nesting (span id / parent id), and free-form attributes — into an
in-memory event list and optionally a JSONL sink (one JSON object per
finished span).  :class:`~repro.obs.timeline.RunTimeline` folds the
events back into a per-phase summary.

Tracing is **off by default**: the hot paths check the module-level
:data:`ACTIVE` tracer and skip all work when it is ``None``, so a run
without tracing pays only a global read and an ``is None`` branch per
window (gated to <1% by ``tests/obs/test_hot_path_overhead.py``).  Install
a tracer for a region with :func:`activate`, or :func:`trace_to` to
also stream the JSONL log to a path.

Tracers are not fork-safe by design: each records the pid it was
created in and turns into a no-op in child processes, so a tracer
captured by a multiprocessing pool cannot interleave half-updated
state — workers that want spans create their own tracer (the farm
worker does exactly this).
"""

import contextlib
import io
import json
import os
import time

_EPOCH = time.perf_counter()


class Span:
    """One open region; finished via the ``span()`` context manager."""

    __slots__ = (
        "name", "span_id", "parent_id", "attrs",
        "_wall0", "_cpu0", "start_s",
    )

    def __init__(self, name, span_id, parent_id, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = time.perf_counter() - _EPOCH
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set(self, **attrs):
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)


class SpanTracer:
    """Collects span events; optionally streams them as JSONL.

    ``sink`` may be ``None`` (in-memory only), a path, or a file-like
    object opened for text writing.  Finished spans land in ``events``
    (dicts, oldest first) regardless of sink.
    """

    def __init__(self, sink=None):
        self.events = []
        self._stack = []
        self._next_id = 1
        self._pid = os.getpid()
        self._owns_sink = False
        if sink is None or hasattr(sink, "write"):
            self._sink = sink
        else:
            # Truncate: a path names *this* tracer's log.  Pass an
            # already-open file object to append across tracers.
            self._sink = open(sink, "w", encoding="utf-8")
            self._owns_sink = True

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        if self._owns_sink and self._sink is not None:
            self._sink.close()
            self._sink = None
            self._owns_sink = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- recording ---------------------------------------------------------
    @property
    def _foreign(self):
        # A tracer inherited across fork must not interleave with the
        # parent's stack or sink; children record nothing.
        return os.getpid() != self._pid

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Time a nested region; yields the open :class:`Span`."""
        if self._foreign:
            yield Span(name, 0, None, attrs)
            return
        span = Span(
            name, self._next_id,
            self._stack[-1].span_id if self._stack else None, attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            wall_s = time.perf_counter() - span._wall0
            cpu_s = time.process_time() - span._cpu0
            self._stack.pop()
            self._record(
                span.name, span.span_id, span.parent_id, span.start_s,
                wall_s, cpu_s, span.attrs,
            )

    def emit(self, name, wall_s, cpu_s=0.0, **attrs):
        """Record a pre-measured leaf event (no nesting of its own).

        The window driver emits five of these per window, so this path
        builds the event directly: no :class:`Span`, no CPU-clock read.
        """
        if self._foreign:
            return
        span_id = self._next_id
        self._next_id += 1
        self._record(
            name, span_id, self._stack[-1].span_id if self._stack else None,
            time.perf_counter() - _EPOCH - wall_s, wall_s, cpu_s, attrs,
        )

    def _record(self, name, span_id, parent_id, start_s, wall_s, cpu_s, attrs):
        event = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "start_s": start_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
        }
        if attrs:
            event["attrs"] = attrs
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            self._sink.flush()


#: The process-wide active tracer the hot paths consult; ``None`` means
#: tracing is off and instrumented code skips all span work.
ACTIVE = None


def current():
    """The active tracer, or ``None`` when tracing is off."""
    return ACTIVE


@contextlib.contextmanager
def activate(tracer):
    """Install ``tracer`` as the process-wide active tracer."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    try:
        yield tracer
    finally:
        ACTIVE = previous


@contextlib.contextmanager
def trace_to(path):
    """Activate a fresh tracer streaming JSONL events to ``path``."""
    with SpanTracer(sink=path) as tracer:
        with activate(tracer):
            yield tracer


def read_jsonl(source):
    """Parse a JSONL span log (path, file-like, or text) into events."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" not in source and os.path.exists(
        source
    ):
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    elif isinstance(source, (str, bytes)):
        text = source if isinstance(source, str) else source.decode("utf-8")
    else:
        text = io.TextIOWrapper(source).read()
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
