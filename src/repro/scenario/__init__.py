"""Declarative, serializable scenarios and batch experiment execution.

The imperative layer (``build_platform`` + floorplan + policy +
``EmulationFramework``) stays the engine room; this package makes whole
experiments *data*:

* :mod:`~repro.scenario.spec` — ``Scenario``, one co-emulation run as
  a JSON-round-trippable spec (platform, workload, floorplan name,
  policy spec, framework config, run bounds).
* :mod:`~repro.scenario.registry` — ``WORKLOADS``, the workload
  generators specs name (floorplans, policies and backends live in
  registries beside their entries).
* :mod:`~repro.scenario.sweep` — ``sweep`` / ``ExperimentSuite``,
  parameter-grid expansion into scenario variants.
* :mod:`~repro.scenario.runner` — ``Runner``, batch execution,
  optionally across worker processes, returning uniform
  ``ScenarioResult`` objects.
* :mod:`~repro.scenario.presets` — ``PRESETS``, named ready-to-run
  scenarios, and ``load_scenarios``, the one CLI spec loader
  (``python -m repro``).
"""
