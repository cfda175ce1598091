#!/usr/bin/env python3
"""Check the exact interpreter's statistics against the recorded benchmark run.

Runs ``perfbench/run.py --workload emu_dither --seed 1 --seconds 1`` and
compares the ``event_driven`` instructions, end cycle, window count,
cache misses, thermal-trace digest and peak temperature of its
``fingerprint`` line with the run recorded in
``docs/perf/BENCH_emu_dither.json``.  perfbench itself only checks that
repeats within one run agree; this catches a change that moves the
simulated statistics of the exact engine.  The totals alone would miss
counts that land in the wrong window (they move per-window power, so
the trace digest and the peak temperature).  Exits nonzero listing
every field that differs.

Usage: python3 tools/check_bench_fingerprint.py [repo-root]
"""

import json
import pathlib
import subprocess
import sys

FIELDS = ("instructions", "end_cycle", "windows", "cache_misses",
          "trace_digest", "peak_k")
COMMAND = ["perfbench/run.py", "--workload", "emu_dither", "--seed", "1",
           "--seconds", "1", "--trace", "0"]


def fingerprint(output):
    """The ``fingerprint {...}`` line of a perfbench run, parsed."""
    for line in output.splitlines():
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    raise ValueError("perfbench printed no fingerprint line")


def mismatches(recorded, measured):
    """``(field, recorded, measured)`` for every differing field."""
    want, got = recorded["event_driven"], measured["event_driven"]
    return [(field, want[field], got[field]) for field in FIELDS
            if want[field] != got[field]]


def main(root):
    recorded = json.loads((root / "docs/perf/BENCH_emu_dither.json").read_text())
    run = subprocess.run([sys.executable, *COMMAND], cwd=root, check=True,
                         capture_output=True, text=True)
    diffs = mismatches(recorded["fingerprint"], fingerprint(run.stdout))
    for field, want, got in diffs:
        print(f"event_driven {field}: recorded {want}, measured {got}")
    print(f"checked {len(FIELDS)} event_driven fields of emu_dither seed 1: "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    default = pathlib.Path(__file__).resolve().parent.parent
    sys.exit(main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default))
