#!/usr/bin/env python3
"""Write, or check, the thermal-network assembly pin.

For every registered floorplan preset and every ``hetero`` core mix of
the default design space, this builds the component grid at refine 1, 2
and 3 and the uniform grid at 8x8 and 18x18, each with spreader
resolutions 2x2, 4x4 and 8x8, assembles the :class:`RCNetwork` and
hashes the bytes of everything the solver and the window read from it:
capacitances, edge endpoints and geometry factors, ambient
conductances, the non-linear cells, the component order, the
injection/readout CSR arrays and ``system_matrix`` at 300 K and on a hot
temperature vector.  Grid generation and RC assembly must reproduce
these bytes exactly: every trace digest depends on them.

Usage (from the repo root)::

    python3 tools/pin_assembly.py           # rewrite the pin file
    python3 tools/pin_assembly.py --check   # exit 1 listing every moved case

Rewrite the pin only after a deliberate change to the thermal model.
"""

import argparse
import hashlib
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PIN_PATH = REPO_ROOT / "tests" / "thermal" / "data" / "assembly_pin.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.dse.space import DEFAULT_BIG_COUNTS, DEFAULT_LITTLE_COUNTS  # noqa: E402
from repro.thermal.floorplan import FLOORPLANS  # noqa: E402
from repro.thermal.grid import build_grid  # noqa: E402
from repro.thermal.rc_network import RCNetwork  # noqa: E402

#: ``(mode, refine_critical, die_resolution)`` of each die grid.
DIE_GRIDS = (
    ("component", 1, (8, 8)),
    ("component", 2, (8, 8)),
    ("component", 3, (8, 8)),
    ("uniform", 1, (8, 8)),
    ("uniform", 1, (18, 18)),
)
SPREADER_RESOLUTIONS = ((2, 2), (4, 4), (8, 8))
#: The backward-Euler step of the pinned ``C/dt + G(T)``.
HOT_DT = 1e-4


def floorplans():
    """Every floorplan preset, then every default-space ``hetero`` mix,
    each once (by name)."""
    plans = {}
    for name in FLOORPLANS.names():
        plan = FLOORPLANS.get(name)()
        plans.setdefault(plan.name, plan)
    for big in DEFAULT_BIG_COUNTS:
        for little in DEFAULT_LITTLE_COUNTS:
            plan = FLOORPLANS.get("hetero")(big=big, little=little)
            plans.setdefault(plan.name, plan)
    return list(plans.values())


def cases():
    """``(case name, floorplan, build_grid keyword arguments)``."""
    for plan in floorplans():
        for mode, refine, die in DIE_GRIDS:
            for spreader in SPREADER_RESOLUTIONS:
                shape = f"refine{refine}" if mode == "component" else (
                    f"{die[0]}x{die[1]}"
                )
                name = (
                    f"{plan.name}/{mode}-{shape}/"
                    f"spreader{spreader[0]}x{spreader[1]}"
                )
                yield name, plan, dict(
                    mode=mode, refine_critical=refine, die_resolution=die,
                    spreader_resolution=spreader,
                )


def network_arrays(network):
    """``(label, array)`` of every pinned fact of an assembled network."""
    n = network.num_cells
    cold = network.system_matrix(np.full(n, 300.0))
    hot = network.system_matrix(
        np.linspace(300.0, 420.0, n), network.capacitance / HOT_DT
    )
    names = "\n".join(network.component_names).encode()
    arrays = [
        ("capacitance", network.capacitance),
        ("edge_i", network.edge_i),
        ("edge_j", network.edge_j),
        ("geom_i", network.geom_i),
        ("geom_j", network.geom_j),
        ("g_ambient", network.g_ambient),
        ("nonlinear_cells", network.nonlinear_cells),
        ("component_names", np.frombuffer(names, dtype=np.uint8)),
    ]
    for label, matrix in (
        ("injection", network._injection),
        ("readout", network._readout),
        ("system_300k", cold),
        ("system_hot", hot),
    ):
        arrays += [
            (f"{label}.data", matrix.data),
            (f"{label}.indices", matrix.indices),
            (f"{label}.indptr", matrix.indptr),
        ]
    return arrays


def digest(network):
    """SHA-256 over every pinned array's label, dtype, shape and bytes."""
    sha = hashlib.sha256()
    for label, array in network_arrays(network):
        array = np.ascontiguousarray(array)
        sha.update(f"{label}:{array.dtype.str}:{array.shape};".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def pins():
    """``{case name: {"cells", "edges", "sha256"}}`` of every case."""
    out = {}
    for name, plan, kwargs in cases():
        network = RCNetwork(build_grid(plan, **kwargs))
        out[name] = {
            "cells": network.num_cells,
            "edges": len(network.edge_i),
            "sha256": digest(network),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the pin file instead of rewriting it",
    )
    args = parser.parse_args(argv)
    current = pins()
    if not args.check:
        PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
        PIN_PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} cases to {PIN_PATH.relative_to(REPO_ROOT)}")
        return 0
    pinned = json.loads(PIN_PATH.read_text())
    moved = sorted(
        name for name in pinned.keys() | current.keys()
        if pinned.get(name) != current.get(name)
    )
    for name in moved:
        print(f"{name}: pinned {pinned.get(name)}, now {current.get(name)}")
    print(f"{len(current)} cases, {len(moved)} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
