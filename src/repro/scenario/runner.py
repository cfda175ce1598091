"""Batch execution of scenarios, optionally across worker processes.

:class:`Runner` executes a list of scenarios (or raw scenario dicts) and
returns uniform :class:`ScenarioResult` objects in input order.  With
``workers > 1`` the batch fans out over a ``multiprocessing`` pool —
scenarios travel as their JSON-compatible dicts and come back as
serialized reports, so the only requirement on a scenario is the same
one the CLI imposes: it must be expressible as plain data.

:meth:`Runner.run_batched` is the orthogonal fast path: instead of
fanning scenarios out, it co-steps scenarios that share one network
structure through a single multi-RHS thermal solve per window (one
factorization for the whole group — see
:meth:`repro.thermal.backends.CachedLU.step_batch`).  The co-step is
the same window driver serial and replayed runs go through
(:func:`repro.core.framework.run_windows`), so every member's
``extras["timing"]`` carries its own phases plus an even share of the
group's solve and residual.

``trace_store`` adds the record-once/replay-many decoupling from
:mod:`repro.trace`: every emulated scenario is captured into the store
under its canonical scenario digest
(:func:`repro.trace.store.scenario_trace_digest`), and any scenario
whose digest is already present — a previous run, or another member of
the *same* batch that differs only in thermal-side knobs — replays the
recorded boundary stream through the thermal solver instead of
re-emulating the platform.  Replayed members carry provenance in
``report.extras["replay"]``.  Both entry points share one planner for
that split (:class:`_DedupPlan`) and differ only in how they execute it.
"""

import multiprocessing
import time
import traceback as traceback_module
from collections import defaultdict
from dataclasses import dataclass

from repro.core.framework import RunReport, check_trace_stride, run_windows
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.scenario.spec import Scenario

#: Scenarios-per-batch histogram buckets (counts, not seconds).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class ScenarioResult:
    """Outcome of one scenario in a batch."""

    name: str
    index: int
    report: RunReport | None = None
    wall_seconds: float = 0.0
    error: str | None = None
    traceback: str | None = None  # the failing worker's formatted stack
    trace: object = None  # ThermalTrace when the runner captures traces

    @property
    def ok(self):
        return self.error is None

    @property
    def status(self):
        """``"ok"`` or ``"failed"`` — the uniform outcome tag batch
        consumers (and the farm's job records) key on."""
        return "ok" if self.error is None else "failed"

    @property
    def replayed(self):
        """True when this member replayed a recorded trace instead of
        re-emulating (see ``report.extras["replay"]``)."""
        return self.report is not None and "replay" in self.report.extras

    @property
    def policy_stats(self):
        """Per-policy statistics the run's policy exported via
        ``report()`` (``RunReport.extras["policy"]``), or ``{}``."""
        if self.report is None:
            return {}
        return dict(self.report.extras.get("policy", {}))

    def to_dict(self):
        out = {
            "name": self.name,
            "index": self.index,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "traceback": self.traceback,
            "report": self.report.to_dict() if self.report else None,
        }
        if self.trace is not None:
            out["trace"] = self.trace.digest()
        return out

    def summary(self):
        if not self.ok:
            return f"{self.name}: FAILED — {self.error}"
        return f"{self.name}: {self.report.summary()}\n  wall {self.wall_seconds:.2f} s"


def _execute(payload):
    """Pool worker: run one scenario dict, return a picklable outcome.

    With ``capture_power`` the live run records its boundary stream and
    ships the :class:`~repro.trace.format.TraceArchive` back (NumPy
    arrays pickle fine), so the parent can file it in the trace store.
    """
    index, scenario_dict, capture_trace, capture_power = payload
    start = time.perf_counter()
    name = scenario_dict.get("name", f"scenario{index}")
    archive = None
    try:
        scenario = Scenario.from_dict(scenario_dict)
        if capture_power:
            from repro.trace.capture import record

            framework, report, archive = record(scenario)
        else:
            framework, report = scenario.run()
        wall = time.perf_counter() - start
        trace = framework.trace if capture_trace else None
        return (
            index, scenario.name, report.to_dict(), wall, None, None, trace,
            archive,
        )
    except Exception as exc:  # the batch survives one bad scenario
        wall = time.perf_counter() - start
        return (
            index, name, None, wall, f"{type(exc).__name__}: {exc}",
            traceback_module.format_exc(), None, None,
        )


def _group_key(runnable):
    """The batching key of one framework-shaped runnable.

    Grouping is defined by *configuration*, not object identity: the
    structure-keyed assembly cache stamps every network it hands out
    with its content key (:attr:`repro.thermal.rc_network.RCNetwork.
    structure_key`), so two scenarios whose floorplan + grid knobs
    coincide group together even when cache eviction (or a custom
    build) gave them distinct grid objects.  Networks without a content
    key (custom material properties) fall back to grid identity.
    """
    structure = runnable.network.structure_key
    if structure is None:
        # repro: allow[determinism] — process-local batching key; grouping affects solve order, never any emulated value
        structure = ("grid-id", id(runnable.grid))
    return (structure, runnable.config.sampling_period_s)


def _failure(index, name, exc, wall=0.0):
    """The failed result of one member, from the exception being handled."""
    return ScenarioResult(
        name=name,
        index=index,
        wall_seconds=wall,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback_module.format_exc(),
    )


@dataclass
class _Member:
    """One batch item as :class:`_DedupPlan` classified it."""

    index: int
    kind: str  # "hit", "leader", "follower" or "error"
    scenario: Scenario | None = None
    digest: str | None = None
    archive: object = None  # the recording a hit or follower replays
    error: ScenarioResult | None = None  # the result of an "error" item

    @property
    def records(self):
        """Whether this member's live run is captured for the store."""
        return self.kind == "leader" and self.digest is not None


class _DedupPlan:
    """The store-hit / leader / follower split of one batch.

    Every item is parsed and, with a trace store, digested and looked up
    once.  A digest already in the store makes a *hit*; the first item of
    an unseen digest is its *leader* (it emulates and records), later
    items of that digest are *followers* that replay the leader's
    recording.  Unparseable items are *errors*.  Without a store every
    parsed item leads and nothing records.
    """

    def __init__(self, runner, scenarios):
        store = self.store = runner.trace_store
        self.source = None
        if store is not None:
            from repro.trace.store import scenario_trace_digest

            self.source = "memory" if store.in_memory else str(store.root)
        self._recordings = {}  # digest -> archive, one store load each
        self.members = []
        claimed = set()
        for index, item in enumerate(scenarios):
            name = (item.name if isinstance(item, Scenario)
                    else item.get("name", f"scenario{index}"))
            member = _Member(index, "leader")
            self.members.append(member)
            try:
                member.scenario = runner._scenario_of(item, name)
                if store is not None:
                    member.digest = scenario_trace_digest(member.scenario)
            except Exception as exc:  # the batch survives one bad scenario
                member.kind = "error"
                member.error = _failure(index, name, exc)
                continue
            if store is None:
                continue
            member.archive = store.get(member.digest)
            if member.archive is not None:
                member.kind = "hit"
            elif member.digest in claimed:
                member.kind = "follower"
            else:
                claimed.add(member.digest)

    def first_pass(self):
        """Store hits and leaders, in input order."""
        return [m for m in self.members if m.kind in ("hit", "leader")]

    def second_pass(self):
        """Followers, once every leader ran, in input order.

        Each follower gets its leader's recording.  A follower whose
        leader recorded nothing (the leader failed) keeps ``archive``
        None and runs live: its thermal side differs, so the failure may
        not repeat.
        """
        followers = [m for m in self.members if m.kind == "follower"]
        for member in followers:
            if member.digest not in self._recordings:
                self._recordings[member.digest] = self.store.get(member.digest)
            member.archive = self._recordings[member.digest]
        return followers

    def recorded(self, archive):
        """File a leader's fresh recording for its followers and the store."""
        self._recordings[archive.scenario_digest] = archive
        try:
            self.store.put(archive)
        except OSError:
            pass  # a full disk must not fail the run


class Runner:
    """Executes scenario batches with ``workers`` parallel processes.

    ``workers <= 1`` runs in-process (and then also sees workloads and
    policies registered after import, regardless of start method).
    ``capture_trace=True`` ships each run's :class:`ThermalTrace` back in
    the result — useful for plotting, costly for very long runs;
    ``trace_stride=k`` decimates those traces to every k-th sample (the
    run's peak/final temperatures are tracked independently and stay
    exact).  ``trace_store`` (a :class:`repro.trace.store.TraceStore`,
    a directory path, or ``True`` for an in-memory store) turns on
    record-once/replay-many: see the module docstring.
    """

    def __init__(self, workers=1, capture_trace=False, start_method=None,
                 trace_store=None, trace_stride=None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.capture_trace = capture_trace
        if trace_stride is not None:
            check_trace_stride(trace_stride)
        self.trace_stride = trace_stride
        if trace_store is not None:
            from repro.trace.store import TraceStore

            if trace_store is True:
                trace_store = TraceStore()
            elif not isinstance(trace_store, TraceStore):
                trace_store = TraceStore(trace_store)
        self.trace_store = trace_store
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method

    # -- scenario normalization ------------------------------------------------
    def _scenario_of(self, item, name):
        """One batch item as a :class:`Scenario`, runner overrides applied.

        A ``Scenario`` that no override touches is used as given (and
        never mutated); anything else is parsed once, here.
        """
        if isinstance(item, Scenario):
            if self.trace_stride is None:
                return item
            data = item.to_dict()
        else:
            data = dict(item)
            data["name"] = name
        if self.trace_stride is not None:
            config = dict(data.get("config") or {})
            config["trace_stride"] = self.trace_stride
            data["config"] = config
        return Scenario.from_dict(data)

    def _replay_result(self, member, source):
        """Replay one member's recording in-process; mirrors ``_execute``."""
        from repro.trace.replay import replay_for_scenario

        start = time.perf_counter()
        scenario = member.scenario
        try:
            player = replay_for_scenario(member.archive, scenario, source=source)
            report = player.run(*scenario.bounds)
            wall = time.perf_counter() - start
            return ScenarioResult(
                name=scenario.name,
                index=member.index,
                report=report,
                wall_seconds=wall,
                trace=player.trace if self.capture_trace else None,
            )
        except Exception as exc:
            return _failure(
                member.index, scenario.name, exc, time.perf_counter() - start
            )

    # -- observability ---------------------------------------------------------
    def _observe_batch(self, results, wall_s, kind):
        """Record one finished batch into the metrics registry (and the
        active tracer, when any): batch size, per-scenario modes, and —
        for pooled batches — worker utilization."""
        if not results:
            return
        obs_catalog.counter("repro_runner_batches_total").inc()
        obs_catalog.histogram(
            "repro_runner_batch_size", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(results))
        scenarios_total = obs_catalog.counter(
            "repro_runner_scenarios_total", labels=("mode",)
        )
        modes = {}
        for result in results:
            mode = (
                "failed" if not result.ok
                else "replayed" if result.replayed
                else "emulated"
            )
            modes[mode] = modes.get(mode, 0) + 1
        for mode, count in modes.items():
            scenarios_total.labels(mode=mode).inc(count)
        workers_used = max(1, min(self.workers, len(results)))
        if wall_s > 0:
            busy_s = sum(r.wall_seconds for r in results)
            obs_catalog.gauge("repro_runner_worker_utilization_ratio").set(
                min(1.0, busy_s / (workers_used * wall_s))
            )
        tracer = obs_tracing.ACTIVE
        if tracer is not None:
            for result in results:
                tracer.emit(
                    "runner.scenario", result.wall_seconds,
                    scenario=result.name, status=result.status,
                    replayed=result.replayed,
                )
            tracer.emit(
                "runner.batch", wall_s, kind=kind,
                scenarios=len(results), workers=workers_used,
            )

    # -- plain batches ---------------------------------------------------------
    def run(self, scenarios):
        """Run every scenario; returns ``list[ScenarioResult]`` in input
        order.  Items may be :class:`Scenario` objects or raw dicts.

        With a trace store, scenarios are deduplicated by their
        canonical digest before anything runs: store hits replay
        immediately, exactly one *leader* per unseen digest emulates
        (and records), and the remaining *followers* replay the
        leader's fresh recording — so a 16-variant thermal sweep costs
        one emulation plus 16 thermal solves, not 16 emulations.
        """
        start = time.perf_counter()
        results = self._run(scenarios)
        self._observe_batch(results, time.perf_counter() - start, "run")
        return results

    def _run(self, scenarios):
        plan = _DedupPlan(self, scenarios)
        results = [member.error for member in plan.members]
        for members in (plan.first_pass, plan.second_pass):
            live = []
            for member in members():
                if member.archive is None:
                    live.append(member)
                else:
                    results[member.index] = self._replay_result(
                        member, plan.source
                    )
            raw = self._run_payloads([
                (m.index, m.scenario.to_dict(), self.capture_trace, m.records)
                for m in live
            ])
            for row in raw:
                results[row[0]] = self._result_of(row)
                if row[7] is not None:
                    plan.recorded(row[7])
        return results

    def _run_payloads(self, payloads):
        if not payloads:
            return []
        if self.workers <= 1 or len(payloads) == 1:
            return [_execute(p) for p in payloads]
        ctx = multiprocessing.get_context(self.start_method)
        with ctx.Pool(processes=min(self.workers, len(payloads))) as pool:
            return pool.map(_execute, payloads)

    @staticmethod
    def _result_of(row):
        index, name, report_dict, wall, error, tb, trace, _archive = row
        return ScenarioResult(
            name=name,
            index=index,
            report=RunReport.from_dict(report_dict) if report_dict else None,
            wall_seconds=wall,
            error=error,
            traceback=tb,
            trace=trace,
        )

    # -- batched thermal solving ----------------------------------------------
    def run_batched(self, scenarios, library=None):
        """Run the batch in-process, co-stepping structure-sharing groups.

        Scenarios whose floorplan + grid configuration + sampling period
        coincide (and therefore share one cached network structure) are
        advanced window by window *together*: every window each member
        contributes one right-hand-side column and one shared
        :class:`~repro.thermal.backends.CachedLU` performs a single
        multi-RHS backward-Euler solve — one factorization for the whole
        group instead of one per scenario per window.  The members'
        configured solver backends are bypassed for the shared
        integration, which carries CachedLU's bounded linearization
        error (exact for linear stacks).

        With a trace store, members are first deduplicated by scenario
        digest exactly like :meth:`run`: store hits and in-batch
        followers become :class:`~repro.trace.replay.ReplaySource`
        members (no platform, no workload — just the recorded stream
        driving the shared solve), leaders emulate with a capture
        attached and are filed into the store when their group ends.

        Results return in input order.  ``wall_seconds`` of each member
        is its *group's* wall time (the solves are genuinely shared),
        while its ``extras["timing"]`` holds its share of that wall; a
        failure while co-stepping marks every unfinished member of that
        group as failed.
        """
        start = time.perf_counter()
        results = self._run_batched(scenarios, library=library)
        self._observe_batch(results, time.perf_counter() - start, "batched")
        return results

    def _run_batched(self, scenarios, library=None):
        start = time.perf_counter()
        plan = _DedupPlan(self, scenarios)
        plan_s = time.perf_counter() - start
        results = [member.error for member in plan.members]
        setup_s, builds, replays = 0.0, 0, 0
        # Hits co-step with the leaders, followers only after every
        # leader recorded: the shared solve linearizes at the group
        # mean, so group composition is part of the numbers.
        for members in (plan.first_pass, plan.second_pass):
            start = time.perf_counter()
            groups = defaultdict(list)
            captures = {}
            for member in members():
                try:
                    if member.archive is not None:
                        from repro.trace.replay import replay_for_scenario

                        replays += 1
                        runnable = replay_for_scenario(
                            member.archive, member.scenario, source=plan.source
                        )
                    else:
                        builds += 1
                        runnable = member.scenario.build(library=library)
                        if member.records:
                            from repro.trace.capture import PowerTraceCapture

                            captures[member.index] = runnable.attach_capture(
                                PowerTraceCapture()
                            )
                    groups[_group_key(runnable)].append(
                        (member, runnable)
                    )
                except Exception as exc:  # the batch survives one bad scenario
                    results[member.index] = _failure(
                        member.index, member.scenario.name, exc
                    )
            setup_s += time.perf_counter() - start
            self._run_groups(groups, results, captures, plan)
        tracer = obs_tracing.ACTIVE
        if tracer is not None:
            # One event each per batch, so tracing costs nothing per member.
            tracer.emit(
                "runner.plan", plan_s, scenarios=len(plan.members),
                digests=sum(m.digest is not None for m in plan.members),
            )
            tracer.emit("runner.setup", setup_s, builds=builds,
                        replays=replays)
        return results

    def _run_groups(self, groups, results, captures, plan):
        """Co-step every group through the window driver, fill
        ``results``, file recordings."""
        for group in groups.values():
            start = time.perf_counter()
            completed = set()
            try:
                run_windows(
                    [runnable for _, runnable in group],
                    [member.scenario.bounds for member, _ in group],
                    co_step=True,
                    completed=completed,
                )
                error = tb = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                tb = traceback_module.format_exc()
            wall = time.perf_counter() - start
            for position, (member, runnable) in enumerate(group):
                # A member that had already reached its bounds *before*
                # the failing window completed normally and keeps its
                # report; everyone else (including a member whose
                # workload happened to finish during the window that
                # raised) is marked failed, matching serial semantics.
                member_error = None if position in completed else error
                report = None
                if not member_error:
                    report = runnable.report()
                    capture = captures.get(member.index)
                    if capture is not None:
                        # Assembly errors propagate (they are bugs, and
                        # masking them would silently disable replay).
                        plan.recorded(capture.to_archive(
                            runnable, scenario=member.scenario, report=report,
                            scenario_digest=member.digest,
                        ))
                results[member.index] = ScenarioResult(
                    name=member.scenario.name,
                    index=member.index,
                    report=report,
                    wall_seconds=wall,
                    error=member_error,
                    traceback=tb if member_error else None,
                    trace=(
                        runnable.trace
                        if self.capture_trace and not member_error
                        else None
                    ),
                )
