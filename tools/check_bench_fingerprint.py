#!/usr/bin/env python3
"""Check simulated statistics against the recorded benchmark runs.

For each workload in ``CHECKS`` this runs ``perfbench/run.py --workload
<workload> --seed 1 --seconds 1`` and compares fields of its
``fingerprint`` line with the run recorded in
``docs/perf/BENCH_<workload>.json``:

* ``emu_dither``: the exact interpreter's (``event_driven``)
  instructions, end cycle, window count, cache misses, thermal-trace
  digest and peak temperature.  The totals alone would miss counts that
  land in the wrong window (they move per-window power, so the trace
  digest and the peak temperature).
* ``thermal_dfs_loop``: the closed DFS loop's trace digest, window
  count, DFS transitions, peak temperature and instructions, so a change
  to the profiled window path (activity, power, solve, sensors, trace)
  that moves one bit of the trace fails here.
* ``dse_sweep``: the design sweep's Pareto-front digest (its
  ``trace_digest``), summed windows, instructions and DFS transitions
  and the hottest peak over all 1008 designs, so a change to the
  runner's batched execution (planning, replays, co-stepped groups)
  that moves one design's result fails here.

perfbench itself only checks that repeats within one run agree.  Exits
nonzero listing every field that differs.

Usage: python3 tools/check_bench_fingerprint.py [repo-root]
"""

import json
import pathlib
import subprocess
import sys

#: ``(workload, fingerprint key or None when the fingerprint is flat,
#: checked fields)``.
CHECKS = (
    ("emu_dither", "event_driven",
     ("instructions", "end_cycle", "windows", "cache_misses", "trace_digest",
      "peak_k")),
    ("thermal_dfs_loop", None,
     ("trace_digest", "windows", "dfs_transitions", "peak_k",
      "instructions")),
    ("dse_sweep", None,
     ("trace_digest", "windows", "instructions", "peak_k",
      "dfs_transitions")),
)


def command(workload):
    return ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "0"]


def fingerprint(output):
    """The ``fingerprint {...}`` line of a perfbench run, parsed."""
    for line in output.splitlines():
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    raise ValueError("perfbench printed no fingerprint line")


def mismatches(recorded, measured, key, fields):
    """``(field, recorded, measured)`` for every differing field."""
    want = recorded if key is None else recorded[key]
    got = measured if key is None else measured[key]
    return [(field, want[field], got[field]) for field in fields
            if want[field] != got[field]]


def main(root):
    differing = 0
    for workload, key, fields in CHECKS:
        bench = root / f"docs/perf/BENCH_{workload}.json"
        recorded = json.loads(bench.read_text())["fingerprint"]
        run = subprocess.run([sys.executable, *command(workload)], cwd=root,
                             check=True, capture_output=True, text=True)
        diffs = mismatches(recorded, fingerprint(run.stdout), key, fields)
        label = workload if key is None else f"{workload} {key}"
        for field, want, got in diffs:
            print(f"{label} {field}: recorded {want}, measured {got}")
        print(f"checked {len(fields)} fields of {label} seed 1: "
              f"{len(diffs)} differ")
        differing += len(diffs)
    return 1 if differing else 0


if __name__ == "__main__":
    default = pathlib.Path(__file__).resolve().parent.parent
    sys.exit(main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default))
