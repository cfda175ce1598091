"""Race thermal policies over one shared platform: the comparison pipeline.

The Figure 6 experiment compares exactly two operating modes (no
management vs dual-threshold DFS).  :func:`compare_policies` generalizes
it into design-space exploration: take one base scenario, substitute N
policy specs through :func:`repro.scenario.sweep.sweep`, execute the
variants — by default through
:meth:`repro.scenario.runner.Runner.run_batched`, since policy variants
share the base scenario's floorplan/grid and therefore one RC structure
and one multi-RHS solve per window — and distill each run into a
:class:`PolicyOutcome` row: peak/final temperature, emulated seconds
spent above the thermal threshold, work completed, and the throughput
loss against the batch's unmanaged baseline.

The ``policy_comparison`` report artifact
(:mod:`repro.report.artifacts`) renders these rows into
``REPRODUCTION.md``; the ``dse_sweep`` workload of ``perfbench/`` times
the co-stepped path it runs on.
"""

from dataclasses import dataclass, field

from repro.scenario.runner import Runner
from repro.scenario.spec import PolicySpec, Scenario
from repro.scenario.sweep import Variant, sweep


@dataclass
class PolicyOutcome:
    """One policy's distilled closed-loop behaviour on the base scenario."""

    policy: str
    peak_temperature_k: float
    final_temperature_k: float
    time_above_threshold_s: float
    emulated_seconds: float
    instructions: float
    workload_done: bool
    frequency_transitions: int
    wall_seconds: float
    stalled: bool = False
    stats: dict = field(default_factory=dict)
    throughput_loss: float = 0.0  # vs the unmanaged baseline, 0..1

    @property
    def throughput(self):
        """Work rate: instructions per emulated second."""
        if self.emulated_seconds <= 0:
            return 0.0
        return self.instructions / self.emulated_seconds

    def to_dict(self):
        return {
            "policy": self.policy,
            "peak_temperature_k": self.peak_temperature_k,
            "final_temperature_k": self.final_temperature_k,
            "time_above_threshold_s": self.time_above_threshold_s,
            "emulated_seconds": self.emulated_seconds,
            "instructions": self.instructions,
            "throughput": self.throughput,
            "throughput_loss": self.throughput_loss,
            "workload_done": self.workload_done,
            "frequency_transitions": self.frequency_transitions,
            "stalled": self.stalled,
            "wall_seconds": self.wall_seconds,
            "stats": dict(self.stats),
        }


@dataclass
class PolicyComparison:
    """The full comparison: one :class:`PolicyOutcome` per policy."""

    base: str
    threshold_kelvin: float
    outcomes: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # policy label -> message

    def outcome(self, policy):
        for row in self.outcomes:
            if row.policy == policy:
                return row
        raise KeyError(f"no outcome for policy {policy!r}")

    def to_dict(self):
        return {
            "base": self.base,
            "threshold_kelvin": self.threshold_kelvin,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "errors": dict(self.errors),
        }


def _policy_variants(policies):
    """Normalize the policies argument into labelled sweep variants."""
    variants = []
    for item in policies:
        if isinstance(item, Variant):
            label, spec = item.label, item.value
        else:
            spec = item
            if isinstance(spec, str):
                spec = PolicySpec(spec)
            elif isinstance(spec, dict):
                spec = PolicySpec.from_dict(spec)
            label = spec.name
        if isinstance(spec, PolicySpec):
            spec = spec.to_dict()
        variants.append(Variant(label, spec))
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ValueError(
            f"policy labels must be unique, got {labels} "
            f"(wrap duplicates in Variant('label', spec))"
        )
    return variants


def comparison_scenarios(base, policies):
    """Expand ``base`` into one scenario per policy, named by its label.

    ``policies`` is a list of registry names, ``PolicySpec`` objects,
    spec dicts or labelled :class:`~repro.scenario.sweep.Variant`
    wrappers.  The variants differ only in their policy subtree, so they
    share the base scenario's RC structure and
    :meth:`~repro.scenario.runner.Runner.run_batched` co-steps them
    through one multi-RHS solve per window.
    """
    if not isinstance(base, Scenario):
        base = Scenario.from_dict(dict(base))
    variants = _policy_variants(policies)
    scenarios = sweep(base, {"policy": variants}, name=base.name)
    for label, scenario in zip((v.label for v in variants), scenarios):
        scenario.name = label  # one sweep axis: the label says it all
    return base, scenarios


def outcomes_from_results(results, threshold_kelvin, base="", baseline="none"):
    """Distill scenario results into a :class:`PolicyComparison`.

    ``results`` must come from a trace-capturing runner (the
    time-above-threshold metric integrates the trace); a result without
    a trace scores 0 there.  ``baseline`` names the outcome whose
    throughput anchors every ``throughput_loss``.
    """
    comparison = PolicyComparison(base=base, threshold_kelvin=threshold_kelvin)
    for result in results:
        if not result.ok:
            comparison.errors[result.name] = result.error
            continue
        report = result.report
        time_above = (
            result.trace.time_above(threshold_kelvin)
            if result.trace is not None
            else 0.0
        )
        comparison.outcomes.append(
            PolicyOutcome(
                policy=result.name,
                peak_temperature_k=report.peak_temperature_k,
                final_temperature_k=report.final_temperature_k,
                time_above_threshold_s=time_above,
                emulated_seconds=report.emulated_seconds,
                instructions=report.instructions,
                workload_done=report.workload_done,
                frequency_transitions=report.frequency_transitions,
                stalled=report.stalled,
                wall_seconds=result.wall_seconds,
                stats=dict(report.extras.get("policy", {})),
            )
        )
    anchor = next(
        (o for o in comparison.outcomes if o.policy == baseline), None
    )
    if anchor is not None and anchor.throughput > 0:
        for row in comparison.outcomes:
            row.throughput_loss = max(
                0.0, 1.0 - row.throughput / anchor.throughput
            )
    return comparison


def compare_policies(
    base,
    policies,
    threshold_kelvin=None,
    runner=None,
    batched=True,
    baseline="none",
):
    """Run ``base`` once per policy and distill the closed-loop outcomes.

    ``base`` is a :class:`Scenario` (its own policy is ignored);
    ``policies`` is as for :func:`comparison_scenarios`.
    ``threshold_kelvin`` defaults to the base config's sensor upper
    threshold.  ``baseline`` names the policy whose throughput anchors
    ``throughput_loss`` (omit it from ``policies`` to skip the
    normalization).  Failed variants land in ``errors`` rather than
    aborting the batch.
    """
    base, scenarios = comparison_scenarios(base, policies)
    if threshold_kelvin is None:
        threshold_kelvin = base.config.sensor_upper_kelvin
    if runner is None:
        runner = Runner(capture_trace=True)
    elif not runner.capture_trace:
        runner = Runner(
            workers=runner.workers,
            capture_trace=True,
            start_method=runner.start_method,
        )
    results = runner.run_batched(scenarios) if batched else runner.run(scenarios)
    return outcomes_from_results(
        results, threshold_kelvin, base=base.name, baseline=baseline
    )
