"""The declarative description of one co-emulation run.

A :class:`Scenario` captures everything `EmulationFramework` needs —
platform architecture, workload, floorplan, thermal policy, framework
knobs and run bounds — as plain data.  ``to_dict()``/``from_dict()``
round-trip losslessly through JSON, so scenarios can be named, saved,
swept (:func:`repro.scenario.sweep.sweep`) and executed in bulk
(:class:`repro.scenario.runner.Runner`) or from the command line
(``python -m repro``).  Both backend registries are sweepable knobs:
``sweep(base, {"config.solver_backend": [...]})`` explores thermal
solvers and ``sweep(base, {"config.emulation_backend": [...]})``
races the exact engines against the fast windowed model.
"""

from dataclasses import dataclass, field

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.mpsoc.platform import MPSoCConfig, build_platform
from repro.policy.base import POLICIES
from repro.scenario.registry import PLATFORM_FREE_WORKLOADS, WORKLOADS
from repro.thermal.floorplan import FLOORPLANS
from repro.util.jsondata import check_keys, json_canonical, json_copy
from repro.util.registry import canonical_spec


@dataclass
class WorkloadSpec:
    """A workload generator by registry name plus its parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "params": json_copy(self.params)}

    @classmethod
    def from_dict(cls, data):
        name, params = WORKLOADS.parse(data)
        return cls(name=name, params=json_copy(params))


@dataclass
class PolicySpec:
    """A thermal-management policy by registry name plus its parameters."""

    name: str = "none"
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "params": json_copy(self.params)}

    @classmethod
    def from_dict(cls, data):
        if data is None:
            return cls()
        name, params = POLICIES.parse(data)
        return cls(name=name, params=json_copy(params))


#: What each section of a scenario may be given as, for the message
#: that refuses anything else.
_SECTIONS = (
    ("workload", (str, dict, WorkloadSpec), "a spec name or dict"),
    ("policy", (str, dict, PolicySpec, type(None)), "a spec name or dict"),
    ("platform", (dict, MPSoCConfig, type(None)), "a dict or null"),
    ("config", (dict, FrameworkConfig), "a dict"),
)


@dataclass
class Scenario:
    """One fully described co-emulation run.

    ``platform`` may be ``None`` for platform-less (profiled) runs; the
    workload spec must then produce the workload itself.  A workload in
    :data:`~repro.scenario.registry.PLATFORM_FREE_WORKLOADS` (a
    ``profiled`` replay) never builds the platform it names: the
    framework takes the per-core static clocks straight from the
    ``MPSoCConfig``, and the report has no platform extras.  ``floorplan``,
    the policy and the workload are specs in the one grammar of
    :meth:`repro.util.registry.Registry.parse` (a registered name, or a
    ``{"name": ..., "params": {...}}`` dict), resolved through
    :data:`~repro.thermal.floorplan.FLOORPLANS`,
    :data:`~repro.policy.base.POLICIES` and
    :data:`~repro.scenario.registry.WORKLOADS`.  A floorplan spec
    without params is stored as its bare name, so every spelling of it
    digests the same.  The thermal solver backend rides inside
    ``config.solver_backend`` in the same grammar and round-trips
    through JSON like every other knob — so a sweep can explore
    backends with ``{"config.solver_backend": ["sparse_be", "cached_lu"]}``.
    """

    name: str
    workload: WorkloadSpec
    platform: MPSoCConfig | None = None
    floorplan: str | dict = "4xarm11"
    policy: PolicySpec = field(default_factory=PolicySpec)
    config: FrameworkConfig = field(default_factory=FrameworkConfig)
    max_emulated_seconds: float | None = None
    max_windows: int | None = None
    max_stall_windows: int | None = None  # bound consecutive zero-progress
    description: str = ""

    def __post_init__(self):
        for section, kinds, what in _SECTIONS:
            value = getattr(self, section)
            if not isinstance(value, kinds):
                raise ValueError(
                    f"a scenario's {section} must be {what}, got "
                    f"{type(value).__name__}"
                )
        if isinstance(self.workload, (str, dict)):
            self.workload = WorkloadSpec.from_dict(self.workload)
        if isinstance(self.policy, (str, dict)) or self.policy is None:
            self.policy = PolicySpec.from_dict(self.policy)
        if isinstance(self.platform, dict):
            self.platform = MPSoCConfig.from_dict(self.platform)
        if isinstance(self.config, dict):
            self.config = FrameworkConfig.from_dict(self.config)
        FLOORPLANS.parse(self.floorplan)
        self.floorplan = canonical_spec(self.floorplan)

    # -- serialization -----------------------------------------------------------
    def to_dict(self):
        """Lossless JSON-compatible dict of the whole scenario."""
        return {
            "name": self.name,
            "description": self.description,
            "platform": self.platform.to_dict() if self.platform else None,
            "floorplan": json_copy(self.floorplan),
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "config": self.config.to_dict(),
            "max_emulated_seconds": self.max_emulated_seconds,
            "max_windows": self.max_windows,
            "max_stall_windows": self.max_stall_windows,
        }

    def canonical_dict(self):
        """``to_dict()`` as it reads back from JSON
        (:func:`~repro.util.jsondata.json_canonical`), walked straight
        from the scenario's own fields: the walk builds fresh containers
        and changes nothing, so ``to_dict``'s copies of the floorplan,
        workload and policy specs would be thrown away."""
        return json_canonical(vars(self) | {
            "platform": self.platform.to_dict() if self.platform else None,
            "workload": vars(self.workload),
            "policy": vars(self.policy),
            "config": self.config.to_dict(),
        })

    @classmethod
    def from_dict(cls, data):
        """Build a scenario from a (possibly abbreviated) dict: the
        workload/policy may be bare registry-name strings, and missing
        sections keep their defaults."""
        check_keys(data, cls.__dataclass_fields__, "scenario")
        for required in ("name", "workload"):
            if required not in data:
                raise ValueError(f"a scenario needs a {required!r} entry")
        return cls(**json_copy(dict(data)))

    # -- construction ------------------------------------------------------------
    def build(self, library=None, floorplan=None):
        """Wire the scenario into a ready-to-run :class:`EmulationFramework`.

        ``floorplan`` is the resolved ``self.floorplan`` when the caller
        already has it (the batch runner resolves each distinct spec
        once per batch); it is not a second floorplan choice.
        """
        platform = core_hz = None
        if self.platform is not None:
            if self.workload.name in PLATFORM_FREE_WORKLOADS:
                core_hz = self.platform.static_core_frequencies()
            else:
                platform = build_platform(self.platform)
        if floorplan is None:
            floorplan = FLOORPLANS.resolve(self.floorplan)
        # A spec dataclass's fields are exactly the spec grammar's keys.
        policy = POLICIES.resolve(vars(self.policy))
        workload = WORKLOADS.resolve(vars(self.workload), platform, floorplan)
        return EmulationFramework(
            platform,
            floorplan,
            workload=workload,
            policy=policy,
            config=self.config,
            library=library,
            core_hz=core_hz,
        )

    @property
    def bounds(self):
        """``(max_emulated_seconds, max_windows, max_stall_windows)``, in
        the order ``run`` and ``bounds_reached`` take them."""
        return (self.max_emulated_seconds, self.max_windows,
                self.max_stall_windows)

    def run(self, library=None):
        """Build and run to the scenario's bounds; returns
        ``(framework, RunReport)``."""
        framework = self.build(library=library)
        return framework, framework.run(*self.bounds)
