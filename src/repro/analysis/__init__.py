"""Static analysis enforcing the repo's load-bearing invariants.

The emulation framework's correctness rests on conventions the type
checker cannot see: config serialization must round-trip every field,
every ``FrameworkConfig`` field must be classified for the trace
digest, farm/store shared state must only be written under a
``FileLock``, the exact backends must stay bit-for-bit deterministic,
and registry entries must be tested and documented.  Each convention
has already produced (or narrowly avoided) a real bug; this package
turns them into machine-checked rules.

Architecture mirrors the solver/emulation backend pattern: rules are
classes registered in :data:`~repro.analysis.rules.ANALYSIS_RULES`,
the walker parses ``src/repro`` once and dispatches AST nodes to every
rule, and findings are structured records diffed against a committed
baseline.  Entry point: ``python -m repro lint``; catalog and
suppression syntax: ``docs/static-analysis.md``.
"""
