"""Power-trace capture & replay — the persistable HW/SW boundary.

The paper's architecture (Figure 5) splits the framework at the
Ethernet link: the FPGA side produces per-window activity/power
statistics, the SW side consumes them.  This package makes that
boundary stream a first-class artifact:

* :mod:`repro.trace.format` — the versioned on-disk archive
  (``.npz`` arrays + JSON metadata sidecar);
* :mod:`repro.trace.capture` — recording a live run's stream;
* :mod:`repro.trace.replay` — driving the RC network/solver backends
  straight from a recording, with thermal-side knobs free to change;
* :mod:`repro.trace.store` — a content-addressed store keyed by the
  canonical scenario digest, which lets
  :class:`repro.scenario.runner.Runner` replay structure-compatible
  sweep members instead of re-emulating them.

``python -m repro trace record|replay|info|list`` is the CLI front-end.
"""
