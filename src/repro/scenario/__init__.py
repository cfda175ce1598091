"""Declarative, serializable scenarios and batch experiment execution.

The imperative layer (``build_platform`` + floorplan + policy +
``EmulationFramework``) stays the engine room; this package makes whole
experiments *data*:

* :mod:`~repro.scenario.spec` — ``Scenario``, one co-emulation run as
  a JSON-round-trippable spec (platform, workload, floorplan name,
  policy spec, framework config, run bounds).
* :mod:`~repro.scenario.registry` — string-keyed registries so specs
  reference floorplans, policies and workload generators by name.
* :mod:`~repro.scenario.sweep` — ``sweep`` / ``ExperimentSuite``,
  parameter-grid expansion into scenario variants.
* :mod:`~repro.scenario.runner` — ``Runner``, batch execution,
  optionally across worker processes, returning uniform
  ``ScenarioResult`` objects.
* :mod:`~repro.scenario.presets` — ``PRESETS``, named ready-to-run
  scenarios (``python -m repro``).
"""
