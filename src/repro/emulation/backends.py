"""Pluggable emulation backends for the HW/SW side of the co-emulation.

The thermal side has had fast/exact strategies behind one contract since
:data:`repro.thermal.backends.SOLVER_BACKENDS`; this module gives the
emulation side the same split (the CHESSY pattern from PAPERS.md: a fast
engine and an exact engine coexisting behind one synchronization
contract).  A backend builds the *workload model* the framework steps
once per sampling window — anything with the ``DirectWorkload`` duck
type (``done`` / ``advance(window_cycles)`` / ``instructions``):

``event_driven`` (:class:`EventDrivenBackend`)
    The exact reference: interpret every instruction with
    :class:`repro.emulation.engine.EventDrivenEngine`.  Functional and
    timing results are the ground truth every other backend is measured
    against.

``cycle_accurate`` (:class:`CycleAccurateBackend`)
    The signal-level reference: evaluate every component every cycle
    (:class:`repro.emulation.cycle_accurate.CycleAccurateEngine`).
    Architecturally exact and deterministic; its per-cycle pipeline
    timing differs from the event-driven model's (each instruction pays
    explicit fetch-issue/wait cycles), so per-window power agrees only
    loosely — and it is orders of magnitude *slower*; register it for
    cross-checks, not for sweeps.

``windowed`` (:class:`WindowedBackend`)
    The fast path: calibrate once against the event-driven engine, then
    advance all cores one window at a time in NumPy array operations
    (:mod:`repro.emulation.windowed`).  Identical workload-completion
    semantics; per-window power within a declared tolerance.

Each backend declares ``exact`` (bit-for-bit deterministic timing) and
``power_tolerance_pct`` — the maximum per-window total-power deviation
from ``event_driven`` the registry-driven equivalence tests enforce.
"""

from repro.emulation.cycle_accurate import CycleAccurateEngine
from repro.emulation.windowed import WindowedWorkload
from repro.util.registry import Registry

EMULATION_BACKENDS = Registry("emulation backend")


class EmulationBackend:
    """One strategy for advancing the platform per sampling window.

    Subclasses implement :meth:`build_workload`, returning a
    workload-model object (``DirectWorkload`` duck type) bound to the
    given platform and power model.
    """

    name = None
    #: Timing is exact and deterministic (digests are bit-for-bit
    #: reproducible and match the event-driven reference's semantics).
    exact = True
    #: Max per-window total-power deviation from ``event_driven`` (%),
    #: enforced by the registry-driven equivalence tests.
    power_tolerance_pct = 0.0

    def build_workload(self, platform, power_model):
        raise NotImplementedError


@EMULATION_BACKENDS.register("event_driven")
class EventDrivenBackend(EmulationBackend):
    """Exact reference: per-instruction event-driven interpretation."""

    name = "event_driven"
    exact = True
    power_tolerance_pct = 0.0

    def build_workload(self, platform, power_model):
        from repro.core.workload_model import DirectWorkload

        return DirectWorkload(platform, power_model)


@EMULATION_BACKENDS.register("cycle_accurate")
class CycleAccurateBackend(EmulationBackend):
    """Signal-level reference: every component evaluated every cycle."""

    name = "cycle_accurate"
    exact = True
    # The per-cycle pipeline charges explicit fetch/memory wait cycles
    # the event-driven timing folds into instruction latency, so the
    # active/stall split (hence core power) differs structurally.
    power_tolerance_pct = 50.0

    def build_workload(self, platform, power_model):
        from repro.core.workload_model import DirectWorkload

        return DirectWorkload(platform, power_model, CycleAccurateEngine(platform))


@EMULATION_BACKENDS.register("windowed")
class WindowedBackend(EmulationBackend):
    """Fast vectorized model calibrated against the event-driven engine.

    See :mod:`repro.emulation.windowed` for the calibration, replay and
    contention model.
    """

    name = "windowed"
    exact = False
    # Steady-state windows agree with event_driven to well under 1%; the
    # bound is set by boundary windows at very fine sampling (the cold
    # cache warm-up and the workload's final partial window concentrate
    # activity the stationary per-instruction rates spread out).
    power_tolerance_pct = 10.0

    def __init__(self, max_utilization=0.95,
                 calibration_max_instructions=50_000_000):
        if not 0.0 < max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        if calibration_max_instructions is not None \
                and calibration_max_instructions < 1:
            raise ValueError("calibration budget must be positive or None")
        self.max_utilization = max_utilization
        self.calibration_max_instructions = calibration_max_instructions

    def build_workload(self, platform, power_model):
        return WindowedWorkload(
            platform,
            power_model,
            max_utilization=self.max_utilization,
            calibration_max_instructions=self.calibration_max_instructions,
        )


def make_emulation_backend(spec=None):
    """Resolve a backend spec to an :class:`EmulationBackend` instance.

    ``spec`` may be ``None`` (the exact ``event_driven`` reference), an
    already constructed :class:`EmulationBackend`, or any
    :meth:`~repro.util.registry.Registry.resolve` spec: a registered
    name or a ``{"name": ..., "params": {...}}`` dict (the JSON form
    that rides inside :class:`repro.core.framework.FrameworkConfig`).
    """
    if spec is None:
        spec = "event_driven"
    if isinstance(spec, EmulationBackend):
        return spec
    return EMULATION_BACKENDS.resolve(spec)
