"""The workload-generator registry behind the declarative scenario layer.

A :class:`~repro.scenario.spec.Scenario` names its workload generator
in :data:`WORKLOADS`, the way FireSim's config files name workloads.
A generator is called as ``generator(platform, floorplan, **params)``
and returns either a workload object for the framework or ``None``
(meaning "programs are loaded; let the framework run the platform
cycle-accurately").

Every other registry a scenario names lives beside its entries:
:data:`repro.thermal.floorplan.FLOORPLANS`,
:data:`repro.policy.base.POLICIES`,
:data:`repro.thermal.backends.SOLVER_BACKENDS`,
:data:`repro.emulation.backends.EMULATION_BACKENDS` and
:data:`repro.power.models.TECH_NODES`.  All of them read the one spec
grammar of :meth:`repro.util.registry.Registry.parse`.

All registries are open: experiments register their own entries with
``REGISTRY.register(name, obj)`` or as a decorator.  Custom entries are
visible to a forked :class:`repro.scenario.runner.Runner` worker; under
a spawn start method only the built-ins survive, so long-lived custom
generators belong in an importable module.
"""

from repro.core.workload_model import ActivityProfile, ProfiledWorkload
from repro.util.registry import Registry
from repro.workloads.dithering import dithering_programs, load_images
from repro.workloads.generator import compute_burst_program, shared_traffic_program
from repro.workloads.matrix import matrix_programs

WORKLOADS = Registry("workload generator")

#: The generators whose workload runs no platform: they are called with
#: ``platform=None`` even when the scenario names an ``MPSoCConfig``,
#: and the trace digest ignores the emulation backend they never build.
PLATFORM_FREE_WORKLOADS = frozenset({"profiled"})


def _require_platform(name, platform):
    if platform is None:
        raise ValueError(f"workload {name!r} needs a platform in the scenario")
    return platform


@WORKLOADS.register("matrix")
def _matrix_workload(platform, floorplan, n=8, iterations=1):
    """The MATRIX kernel, run cycle-accurately on the emulated cores."""
    platform = _require_platform("matrix", platform)
    platform.load_program_all(matrix_programs(len(platform.cores), n, iterations))
    return None


@WORKLOADS.register("dithering")
def _dithering_workload(platform, floorplan, width=32, height=32, num_images=2):
    """The DITHERING kernel over ``num_images`` shared grey images."""
    platform = _require_platform("dithering", platform)
    load_images(platform, width, height, num_images=num_images)
    platform.load_program_all(
        dithering_programs(len(platform.cores), width, height, num_images)
    )
    return None


@WORKLOADS.register("shared_traffic")
def _shared_traffic_workload(platform, floorplan, **params):
    """Synthetic interconnect-traffic generator, one instance per core."""
    platform = _require_platform("shared_traffic", platform)
    platform.load_program_all(
        [
            shared_traffic_program(core_id, **params)
            for core_id in range(len(platform.cores))
        ]
    )
    return None


@WORKLOADS.register("compute_burst")
def _compute_burst_workload(platform, floorplan, **params):
    """Synthetic compute-burst generator on every core."""
    platform = _require_platform("compute_burst", platform)
    program = compute_burst_program(**params)
    platform.load_program_all([program] * len(platform.cores))
    return None


@WORKLOADS.register("profiled")
def _profiled_workload(platform, floorplan, profile, total_iterations):
    """Replay a serialized :class:`ActivityProfile` (no platform built)."""
    if isinstance(profile, dict):
        profile = ActivityProfile.from_dict(profile)
    return ProfiledWorkload(profile, total_iterations=total_iterations)
