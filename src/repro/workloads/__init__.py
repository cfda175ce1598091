"""SW drivers executed on the emulated MPSoC (Section 7).

* :mod:`repro.workloads.matrix` — the MATRIX kernel: independent integer
  matrix multiplications in each core's private memory, combined in
  shared memory at the end; MATRIX-TM is its 100 K-iteration
  thermal-stress variant.
* :mod:`repro.workloads.dithering` — the DITHERING kernel:
  Floyd-Steinberg dithering of two grey images split in four segments in
  shared memory.
* :mod:`repro.workloads.generator` — synthetic traffic/compute
  generators for sweeps and ablations.
"""

# perfbench/cases.py imports this one name from the package.
from repro.workloads.dithering import dithering_programs  # noqa: F401
