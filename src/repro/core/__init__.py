"""The paper's primary contribution: the HW/SW co-emulation framework.

Wires the emulated MPSoC (``repro.mpsoc``), the statistics extraction
subsystem (sniffers + BRAM buffer + Ethernet dispatcher), the Virtual
Platform Clock Manager, and the SW thermal library (``repro.thermal``)
into the closed loop of Figure 5: statistics flow to the thermal model
every sampling period, temperatures flow back, and run-time thermal
management policies act on the virtual clocks.
"""
