"""Emulated MPSoC hardware substrate.

This package is the Python stand-in for the FPGA side of the paper's
framework: parameterizable processing cores, a configurable memory
hierarchy (per-core memory controllers, private/shared memories,
HW-controlled caches) and configurable interconnects (buses and an
xpipes-class NoC).
"""
