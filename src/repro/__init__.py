"""repro — a HW/SW FPGA-based thermal emulation framework for MPSoC.

A faithful, executable reproduction of Atienza et al., *"A Fast HW/SW
FPGA-Based Thermal Emulation Framework for Multi-Processor
System-on-Chip"* (DAC 2006): an emulated MPSoC platform (cores, caches,
memories, buses, NoCs) with a transparent statistics-extraction fabric,
a Virtual Platform Clock Manager, an Ethernet statistics link, an RC
thermal model with non-linear silicon conductivity, and the closed
co-emulation loop that lets run-time thermal-management policies (DFS)
act on live temperatures.

Packages hold modules only: import every name from the module that
defines it.  Quick start::

    from repro.core.framework import EmulationFramework
    from repro.mpsoc.cache import CacheConfig
    from repro.mpsoc.platform import CoreConfig, MPSoCConfig, build_platform
    from repro.policy.builtin import DualThresholdDfsPolicy
    from repro.thermal.floorplan import floorplan_4xarm11
    from repro.workloads.matrix import matrix_programs

    platform = build_platform(MPSoCConfig(
        name="demo",
        cores=[CoreConfig(f"cpu{i}", spec="arm11") for i in range(4)],
        icache=CacheConfig(name="i", size=8192, line_size=16),
        dcache=CacheConfig(name="d", size=8192, line_size=16, assoc=2),
    ))
    platform.load_program_all(matrix_programs(4, n=8))
    framework = EmulationFramework(platform, floorplan_4xarm11(),
                                   policy=DualThresholdDfsPolicy())
    report = framework.run(max_emulated_seconds=1.0)

Or declaratively, as a serializable
:class:`~repro.scenario.spec.Scenario` (saved, swept and run in bulk
through :class:`~repro.scenario.runner.Runner` — see ``python -m repro``)::

    from repro.scenario.runner import Runner
    from repro.scenario.spec import PolicySpec, Scenario, WorkloadSpec

    scenario = Scenario(
        name="demo",
        workload=WorkloadSpec("matrix", {"n": 8}),
        platform=platform_config,          # an MPSoCConfig (or its dict)
        floorplan="4xarm11",
        policy=PolicySpec("dual_threshold"),
    )
    [result] = Runner(workers=1).run([scenario])

See README.md for the paper-to-module map, the scenario quick start and
the reproduced tables and figures.
"""

__version__ = "1.1.0"
