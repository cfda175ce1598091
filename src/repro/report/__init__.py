"""The one-command paper-reproduction report pipeline.

Every headline artifact of the paper — Table 1 (power library), Table 2
(thermal properties), Table 3 (timing), Figure 3 (RC-model scaling) and
Figure 6 (thermal runtime with/without DFS) — is a named
:class:`~repro.report.artifacts.Artifact`: scenarios from
:mod:`repro.scenario` plus an extractor and tolerance checks against the
published numbers.  ``python -m repro report`` runs them through
:class:`~repro.scenario.runner.Runner` (the Figure 3 sweep through
:meth:`~repro.scenario.runner.Runner.run_batched`) and renders one
self-contained ``REPRODUCTION.md`` with a machine-readable
``reproduction.json`` alongside; ``--check`` is the CI regression gate.
"""
