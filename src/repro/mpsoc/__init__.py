"""Emulated MPSoC hardware substrate.

This package is the Python stand-in for the FPGA side of the paper's
framework: parameterizable processing cores, a configurable memory
hierarchy (per-core memory controllers, private/shared memories,
HW-controlled caches) and configurable interconnects (buses and an
xpipes-class NoC).
"""

from repro.mpsoc.cache import Cache, CacheConfig
from repro.mpsoc.isa import Instruction, assemble_word, decode
from repro.mpsoc.asm import AssemblyError, Program, assemble
from repro.mpsoc.memory import Memory, MemoryConfig
from repro.mpsoc.memctrl import AddressRange, MemoryController
from repro.mpsoc.processor import CoreSpec, Processor, CORE_SPECS
from repro.mpsoc.bus import Bus, BusConfig
from repro.mpsoc.noc import Noc, NocConfig, generate_mesh, generate_custom
from repro.mpsoc.platform import MPSoCConfig, Platform, build_platform

__all__ = [
    "AddressRange",
    "AssemblyError",
    "Bus",
    "BusConfig",
    "Cache",
    "CacheConfig",
    "CORE_SPECS",
    "CoreSpec",
    "Instruction",
    "Memory",
    "MemoryConfig",
    "MemoryController",
    "MPSoCConfig",
    "Noc",
    "NocConfig",
    "Platform",
    "Processor",
    "Program",
    "assemble",
    "assemble_word",
    "build_platform",
    "decode",
    "generate_custom",
    "generate_mesh",
]
