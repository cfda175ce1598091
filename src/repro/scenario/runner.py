"""Batch execution of scenarios, optionally across worker processes.

:class:`Runner` executes a list of scenarios (or raw scenario dicts) and
returns uniform :class:`ScenarioResult` objects in input order.  Its two
entry points drive one executor (:class:`_Execution`): each member is set
up (a replay of a recording, or a build with a capture when it records),
stepped by the window driver (:func:`repro.core.framework.run_windows`)
and finished (report, recording filed, result), and each batch emits one
``runner.plan`` and one ``runner.setup`` span.

* :meth:`Runner.run` builds, runs and releases one member at a time, so
  ``wall_seconds`` is the member's own set-up and run; with
  ``workers > 1`` the emulating members run the same steps in a
  ``multiprocessing`` pool.
* :meth:`Runner.run_batched` co-steps scenarios that share one network
  structure through a single multi-RHS thermal solve per window (one
  factorization for the whole group — see
  :meth:`repro.thermal.backends.CachedLU.step_batch`), so
  ``wall_seconds`` is the group's wall and each member's
  ``extras["timing"]`` carries its own phases plus an even share of the
  group's solve and residual.  Groups are keyed before anything is
  built, and a group's members are set up when it starts and released
  when it ends, so only one group's frameworks are alive at a time.

Set-up costs per floorplan, not per member: the plan resolves each
distinct floorplan spec of a batch once, and every member naming it
builds (or replays) on that one immutable
:class:`~repro.thermal.floorplan.Floorplan`.

``trace_store`` adds the record-once/replay-many decoupling from
:mod:`repro.trace`: every emulated scenario is captured into the store
under its canonical scenario digest
(:func:`repro.trace.store.scenario_trace_digest`), and any scenario
whose digest is already present — a previous run, or another member of
the *same* batch that differs only in thermal-side knobs — replays the
recorded boundary stream through the thermal solver instead of
re-emulating the platform.  Replayed members carry provenance in
``report.extras["replay"]``.  One planner makes that split for both
entry points (:class:`_DedupPlan`).
"""

import json
import multiprocessing
import time
import traceback as traceback_module
from collections import defaultdict
from dataclasses import dataclass

from repro.core.framework import RunReport, run_windows
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.scenario.spec import Scenario
from repro.thermal.floorplan import FLOORPLANS
from repro.thermal.rc_network import structure_key
from repro.util.processes import start_method

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
    """Pool worker: run one member alone, as in-process; returns its
    result and the archive it recorded (or None) for the parent to file."""
    member, capture_trace = payload
    archives = []
    result = _Execution(capture_trace, archives.append).alone(member)
    return result, (archives[0] if archives else None)


def _co_step_key(scenario, floorplan):
    """The co-step group of a scenario on its resolved floorplan, from
    configuration alone, before anything is built.

    Members co-step together when their networks share one structure
    (:func:`repro.thermal.rc_network.structure_key`, the key
    :func:`~repro.thermal.rc_network.network_for` stamps on what it
    builds) and their sampling period.  A replay runs under its
    requesting scenario's config, so one key serves both kinds.
    """
    config = scenario.config
    return (
        structure_key(floorplan, config.grid_mode,
                      config.refine_critical, config.die_resolution,
                      config.spreader_resolution),
        config.sampling_period_s,
    )


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
    floorplan: object = None  # the batch's one Floorplan for its spec

    @property
    def records(self):
        """Whether this member's live run is captured for the store."""
        return self.kind == "leader" and self.digest is not None


class _DedupPlan:
    """The store-hit / leader / follower split of one batch.

    A :class:`Scenario` item is used as given (and never mutated), a dict
    is parsed once, and with a trace store each is digested and looked
    up once.  A digest already in the store makes a *hit*; the first
    item of an unseen digest is its *leader* (it emulates and records),
    later items of that digest are *followers* that replay the leader's
    recording.  Unparseable items, and items whose floorplan does not
    resolve, are *errors*.  Without a store every parsed item leads and
    nothing records.

    Each distinct floorplan spec is resolved once per plan, and every
    member naming it shares the one immutable
    :class:`~repro.thermal.floorplan.Floorplan` (``floorplans``).
    """

    def __init__(self, runner, scenarios):
        store = self.store = runner.trace_store
        self.source = None
        if store is not None:
            from repro.trace.store import scenario_trace_digest

            self.source = "memory" if store.in_memory else str(store.root)
        self._recordings = {}  # digest -> archive, one store load each
        self.floorplans = {}  # spec key -> Floorplan, one resolve each
        self.members = []
        claimed = set()
        for index, item in enumerate(scenarios):
            name = (item.name if isinstance(item, Scenario)
                    else item.get("name", f"scenario{index}"))
            member = _Member(index, "leader")
            self.members.append(member)
            try:
                member.scenario = (
                    item if isinstance(item, Scenario)
                    else Scenario.from_dict({**item, "name": name})
                )
                if store is not None:
                    member.digest = scenario_trace_digest(member.scenario)
                member.floorplan = self._floorplan(member.scenario.floorplan)
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

    def _floorplan(self, spec):
        """The batch's one :class:`Floorplan` for a canonical spec."""
        key = spec if isinstance(spec, str) else json.dumps(spec, sort_keys=True)
        floorplan = self.floorplans.get(key)
        if floorplan is None:
            floorplan = self.floorplans[key] = FLOORPLANS.resolve(spec)
        return floorplan

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
    the result (one row per window) — useful for plotting, costly for
    very long runs.  ``trace_store``
    (a :class:`repro.trace.store.TraceStore`, a directory path, or
    ``True`` for an in-memory store) turns on record-once/replay-many:
    see the module docstring.  Every other knob of a run lives on its
    scenario, which the runner uses as given.
    """

    def __init__(self, workers=1, capture_trace=False, trace_store=None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.capture_trace = capture_trace
        if trace_store is not None:
            from repro.trace.store import TraceStore

            if trace_store is True:
                trace_store = TraceStore()
            elif not isinstance(trace_store, TraceStore):
                trace_store = TraceStore(trace_store)
        self.trace_store = trace_store

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

    # -- the two entry points ------------------------------------------------
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
        results = self._drive(scenarios, co_step=False)
        self._observe_batch(results, time.perf_counter() - start, "run")
        return results

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
        results = self._drive(scenarios, co_step=True, library=library)
        self._observe_batch(results, time.perf_counter() - start, "batched")
        return results

    # -- the one executor ------------------------------------------------------
    def _drive(self, scenarios, co_step, library=None):
        """Plan the batch, then run both passes through one
        :class:`_Execution`; returns the results in input order."""
        start = time.perf_counter()
        plan = _DedupPlan(self, scenarios)
        plan_s = time.perf_counter() - start
        execution = _Execution(
            self.capture_trace, plan.recorded, plan.source, library
        )
        results = [member.error for member in plan.members]
        # Hits run with the leaders, followers only after every leader
        # recorded: a co-stepped group linearizes at its mean, so group
        # composition is part of the numbers.
        for members in (plan.first_pass, plan.second_pass):
            if co_step:
                finished = execution.co_step(members())
            else:
                finished = self._one_at_a_time(members(), execution)
            for result in finished:
                results[result.index] = result
        tracer = obs_tracing.ACTIVE
        if tracer is not None:
            # One event each per batch, so tracing costs nothing per member.
            tracer.emit(
                "runner.plan", plan_s, scenarios=len(plan.members),
                digests=sum(m.digest is not None for m in plan.members),
            )
            tracer.emit("runner.setup", execution.setup_s,
                        builds=execution.builds, replays=execution.replays,
                        floorplans=len(plan.floorplans))
        return results

    def _one_at_a_time(self, members, execution):
        """Each member's result, run alone: in-process, or for the
        emulating members over the pool when ``workers > 1``."""
        live = [m for m in members if m.archive is None]
        pooled = live if self.workers > 1 and len(live) > 1 else []
        for member in members:
            if member.archive is not None or not pooled:
                yield execution.alone(member)
        if pooled:
            ctx = multiprocessing.get_context(start_method())
            with ctx.Pool(processes=min(self.workers, len(pooled))) as pool:
                rows = pool.map(
                    _execute, [(m, self.capture_trace) for m in pooled]
                )
            for result, archive in rows:
                if archive is not None:
                    execution.recorded(archive)
                yield result


class _Execution:
    """The per-member steps of both entry points: :meth:`setup` and
    :meth:`finish`, with :meth:`alone` running one member between them
    and :meth:`co_step` running structure-sharing groups."""

    def __init__(self, capture_trace, recorded, source=None, library=None):
        self.capture_trace = capture_trace
        self.recorded = recorded  # files a leader's fresh archive
        self.source = source  # the replays' provenance label
        self.library = library
        self.setup_s, self.builds, self.replays = 0.0, 0, 0

    def setup(self, member):
        """``(runnable, capture)`` of one member; ``capture`` is None
        unless the member records."""
        start = time.perf_counter()
        try:
            if member.archive is not None:
                from repro.trace.replay import replay_for_scenario

                self.replays += 1
                return replay_for_scenario(
                    member.archive, member.scenario, source=self.source,
                    floorplan=member.floorplan,
                ), None
            self.builds += 1
            runnable = member.scenario.build(library=self.library,
                                             floorplan=member.floorplan)
            if not member.records:
                return runnable, None
            from repro.trace.capture import PowerTraceCapture

            return runnable, runnable.attach_capture(PowerTraceCapture())
        finally:
            self.setup_s += time.perf_counter() - start

    def finish(self, member, runnable, capture, report, wall):
        """File a recording leader's archive; returns the member's result."""
        if capture is not None:
            # Assembly errors propagate (they are bugs, and masking them
            # would silently disable replay).
            self.recorded(capture.to_archive(
                runnable, scenario=member.scenario, report=report,
                scenario_digest=member.digest,
            ))
        return ScenarioResult(
            name=member.scenario.name,
            index=member.index,
            report=report,
            wall_seconds=wall,
            trace=runnable.trace if self.capture_trace else None,
        )

    def alone(self, member):
        """Set up, run and release one member; ``wall_seconds`` is its
        own set-up and run."""
        start = time.perf_counter()
        try:
            runnable, capture = self.setup(member)
            report = runnable.run(*member.scenario.bounds)
        except Exception as exc:  # the batch survives one bad scenario
            return _failure(member.index, member.scenario.name, exc,
                            time.perf_counter() - start)
        return self.finish(member, runnable, capture, report,
                           time.perf_counter() - start)

    def co_step(self, members):
        """Co-step each structure-sharing group through the window
        driver, one group at a time; yields the members' results, whose
        ``wall_seconds`` is their group's wall.

        Groups run in order of first appearance, members in input order
        (the first member's network binds the group's solver).
        """
        groups = defaultdict(list)
        for member in members:
            groups[_co_step_key(member.scenario, member.floorplan)].append(member)
        for group in groups.values():
            yield from self._co_step_group(group)

    def _co_step_group(self, members):
        """Set up one group, co-step it and finish it; returns its
        results.  Its runnables die with this call, so only results,
        traces and recordings outlive the group."""
        results, group = [], []
        for member in members:
            try:
                group.append((member, *self.setup(member)))
            except Exception as exc:  # the batch survives one bad scenario
                results.append(_failure(member.index, member.scenario.name, exc))
        if not group:
            return results
        start = time.perf_counter()
        completed = set()
        try:
            run_windows(
                [runnable for _, runnable, _ in group],
                [member.scenario.bounds for member, _, _ in group],
                co_step=True,
                completed=completed,
            )
            error = tb = None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            tb = traceback_module.format_exc()
        wall = time.perf_counter() - start
        for position, (member, runnable, capture) in enumerate(group):
            # A member that had already reached its bounds *before*
            # the failing window completed normally and keeps its
            # report; everyone else (including a member whose
            # workload happened to finish during the window that
            # raised) is marked failed, matching serial semantics.
            if error is None or position in completed:
                results.append(self.finish(member, runnable, capture,
                                           runnable.report(), wall))
            else:
                results.append(ScenarioResult(
                    name=member.scenario.name, index=member.index,
                    wall_seconds=wall, error=error, traceback=tb,
                ))
        return results
