"""In-memory span tracing around the public entry points of each layer.

The traced run wraps, from the outside, the functions and methods each
layer of ``repro`` exposes (nothing under ``src/`` is edited).  Every
call of a wrapped entry point becomes one span carrying its own id, its
parent's id and the run id; spans stay in memory and are written out
once, when the benchmark ends.  A span's *self time* is its duration
minus the time its child spans cover.

The untraced runs never install these wrappers: :meth:`Tracer.active`
patches on entry and restores the original attributes on exit.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Root span around one timed iteration; its self time is the part of
#: the iteration no layer span covers.
ROOT = "bench.iteration"


def _entry_points():
    """``(owner, attribute, span name)`` for every traced entry point.

    Imported lazily: the repro package is only importable once the
    benchmark has put the checkout's ``src`` on ``sys.path``.
    """
    from importlib import import_module

    from repro.core.dispatcher import EthernetDispatcher
    from repro.core.framework import EmulationFramework
    from repro.core.sniffers import SnifferBank
    from repro.core.workload_model import DirectWorkload, ProfiledWorkload
    from repro.emulation.windowed import WindowedCalibration, WindowedWorkload
    from repro.policy.base import ThermalPolicy
    from repro.power.models import PowerModel
    from repro.scenario.runner import Runner
    from repro.scenario.spec import Scenario
    from repro.thermal.backends import BatchedLU
    from repro.thermal.sensors import SensorBank
    from repro.thermal.solver import ThermalSolver
    from repro.trace.capture import PowerTraceCapture
    from repro.trace.store import TraceStore

    # Modules by full name: a package may re-export a function under a
    # submodule's name (repro.trace.replay is also a function).
    dse_driver = import_module("repro.dse.driver")
    dse_pareto = import_module("repro.dse.pareto")
    dse_space = import_module("repro.dse.space")
    rc_network = import_module("repro.thermal.rc_network")
    trace_replay = import_module("repro.trace.replay")
    trace_store = import_module("repro.trace.store")

    points = [
        # scenario
        (Scenario, "build", "scenario.build"),
        (Scenario, "from_dict", "scenario.from_dict"),
        (Runner, "run_batched", "scenario.run_batched"),
        # emulation / mpsoc
        (DirectWorkload, "advance", "emulation.advance"),
        (ProfiledWorkload, "advance", "emulation.advance"),
        (WindowedWorkload, "advance", "emulation.advance"),
        (WindowedCalibration, "__init__", "emulation.calibrate"),
        # core
        (EmulationFramework, "step_window", "core.window"),
        (EthernetDispatcher, "dispatch_window", "core.dispatch"),
        (SnifferBank, "collect_window", "core.dispatch"),
        # power
        (PowerModel, "component_power", "power.component_power"),
        (PowerModel, "activity_from_stats", "power.activity"),
        # thermal
        (ThermalSolver, "step_be", "thermal.solve"),
        (BatchedLU, "step_batch", "thermal.solve"),
        (ThermalSolver, "component_temperatures", "thermal.sensors"),
        (SensorBank, "update", "thermal.sensors"),
        (rc_network, "network_for", "thermal.network_for"),
        (rc_network, "build_grid", "thermal.network_build"),
        # trace
        (TraceStore, "get", "trace.store_get"),
        (TraceStore, "put", "trace.store_put"),
        (trace_store, "scenario_trace_digest", "trace.digest"),
        (trace_replay, "replay_for_scenario", "trace.replay_setup"),
        (PowerTraceCapture, "to_archive", "trace.capture"),
        (PowerTraceCapture, "on_window", "trace.capture"),
        # dse
        (dse_driver, "run_dse", "dse.run"),
        (dse_space, "generate_points", "dse.points"),
        (dse_space, "point_scenario", "dse.points"),
        (dse_pareto, "pareto_front", "dse.pareto"),
    ]
    # policy: every concrete policy class that defines its own react().
    pending = [ThermalPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "react" in vars(cls):
            points.append((cls, "react", "policy.react"))
    return points


def _solver_counts(args, name):
    """(factorizations, solves) of the backend a solve call uses."""
    backend = args[0].backend if name == "step_be" else args[0]
    return backend.factorizations, backend.solves


class Tracer:
    """Collects spans and per-name self/total times for traced runs."""

    def __init__(self):
        self.spans = []  # (span id, parent id, run id, name, start, end)
        self.run_id = None
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patched = []
        self.reset()

    def reset(self):
        """Zero the per-name aggregates (spans are kept)."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    # -- spans ---------------------------------------------------------------
    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        return parent

    def _close(self, name, parent, start, end):
        span_id, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((span_id, parent, self.run_id, name, start, end))

    def _wrap(self, fn, name, attr):
        tracer = self
        if name == "thermal.solve":
            def wrapper(*args, **kwargs):
                before = _solver_counts(args, attr)
                parent = tracer._open()
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(name, parent, start, time.perf_counter())
                    after = _solver_counts(args, attr)
                    tracer.counts["factorizations"] += after[0] - before[0]
                    tracer.counts["solves"] += after[1] - before[1]
        elif name == "trace.store_get":
            def wrapper(*args, **kwargs):
                parent = tracer._open()
                start = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._close(name, parent, start, time.perf_counter())
                    key = "store_misses" if result is None else "store_hits"
                    tracer.counts[key] += 1
        else:
            def wrapper(*args, **kwargs):
                parent = tracer._open()
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(name, parent, start, time.perf_counter())
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, attr))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(original.__func__, name, attr))
        else:
            replacement = self._wrap(original, name, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            # A module-level function is also bound, by name, in every
            # module that imported it: patch each binding.
            targets = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if mod_name == "repro" or mod_name.startswith("repro.")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for target, key in targets:
            setattr(target, key, replacement)
            self._patched.append((target, key, original))

    def install(self):
        for owner, attr, name in _entry_points():
            self._patch(owner, attr, name)

    def uninstall(self):
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    @contextmanager
    def active(self, run_id):
        """Trace one iteration: patch, open the root span, restore."""
        self.run_id = run_id
        self.install()
        try:
            parent = self._open()
            start = time.perf_counter()
            try:
                yield self
            finally:
                self._close(ROOT, parent, start, time.perf_counter())
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------
    def write(self, path):
        """Write every span as one JSON line (start/end in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent, run_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "run": run_id,
                    "name": name, "start_s": start, "end_s": end,
                }) + "\n")
