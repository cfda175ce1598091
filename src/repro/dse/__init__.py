"""Design-space exploration over heterogeneous MPSoC platforms.

The paper's Section 7 ablations (core counts, interconnects, DFS
thresholds) are one-axis sweeps; this package turns them into a real
DSE loop: :mod:`repro.dse.space` generates thousands of heterogeneous
platform configurations (big/little core mixes x tech nodes x
operating points x thermal grids), :mod:`repro.dse.driver` evaluates
them through :meth:`repro.scenario.runner.Runner.run_batched` with
:class:`repro.trace.store.TraceStore` replay dedup, and
:mod:`repro.dse.pareto` prunes the metric rows (peak temperature vs
throughput vs power) to their Pareto front.  ``python -m repro dse``
is the command-line entry; the ``pareto_front`` report artifact
(:mod:`repro.report.artifacts`) runs a reduced space inside the
reproduction report.
"""
