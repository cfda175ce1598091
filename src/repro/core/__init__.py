"""The paper's primary contribution: the HW/SW co-emulation framework.

Wires the emulated MPSoC (``repro.mpsoc``), the statistics extraction
subsystem (sniffers + BRAM buffer + Ethernet dispatcher), the Virtual
Platform Clock Manager, and the SW thermal library (``repro.thermal``)
into the closed loop of Figure 5: statistics flow to the thermal model
every sampling period, temperatures flow back, and run-time thermal
management policies act on the virtual clocks.
"""

from repro.core.framework import EmulationFramework, FrameworkConfig
from repro.core.sniffers import (
    CountLoggingSniffer,
    EventLoggingSniffer,
    Sniffer,
    SnifferBank,
)
from repro.core.dispatcher import BramBuffer, EthernetDispatcher, StatisticsFrame
from repro.core.stats import ThermalTrace, TraceSample, diff_stats
from repro.policy import (
    DualThresholdDfsPolicy,
    NoManagementPolicy,
    PerCoreDfsPolicy,
    StopGoPolicy,
    ThermalPolicy,
)
from repro.core.vpcm import Vpcm
from repro.core.workload_model import (
    ActivityProfile,
    DirectWorkload,
    ProfiledWorkload,
    profile_platform_run,
)

__all__ = [
    "ActivityProfile",
    "BramBuffer",
    "CountLoggingSniffer",
    "DirectWorkload",
    "DualThresholdDfsPolicy",
    "EmulationFramework",
    "EthernetDispatcher",
    "EventLoggingSniffer",
    "FrameworkConfig",
    "NoManagementPolicy",
    "PerCoreDfsPolicy",
    "ProfiledWorkload",
    "Sniffer",
    "SnifferBank",
    "StatisticsFrame",
    "StopGoPolicy",
    "ThermalPolicy",
    "ThermalTrace",
    "TraceSample",
    "Vpcm",
    "diff_stats",
    "profile_platform_run",
]
