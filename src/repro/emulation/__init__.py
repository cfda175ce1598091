"""Execution engines and platform performance models.

* :mod:`repro.emulation.engine` — the fast event-driven engine that
  plays the FPGA's role: cores advance in global time order, shared
  resources are timed with busy-until bookkeeping.
* :mod:`repro.emulation.cycle_accurate` — a signal-level engine that
  evaluates every component every cycle, the way an HDL/SystemC kernel
  (MPARM) does; the measured baseline for Table 3's shape.
* :mod:`repro.emulation.windowed` — the vectorized window-level fast
  model, calibrated once against the event-driven engine.
* :mod:`repro.emulation.backends` — the ``EMULATION_BACKENDS`` registry
  putting all three behind one contract (mirrors ``SOLVER_BACKENDS``).
* :mod:`repro.emulation.perfmodel` — calibrated wall-clock models of the
  FPGA emulator and an MPARM-class simulator.
* :mod:`repro.emulation.ethernet` — the FPGA-to-host statistics link.
"""
