"""The CI check that pins simulated statistics to the recorded
``emu_dither``, ``thermal_dfs_loop`` and ``dse_sweep`` benchmark runs
reads its inputs right and catches a moved statistic (the perfbench
runs themselves are CI's job)."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location(
    "check_bench_fingerprint", REPO_ROOT / "tools" / "check_bench_fingerprint.py"
)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

CHECKS = {workload: (key, fields) for workload, key, fields in tool.CHECKS}
EMU_KEY, EMU_FIELDS = CHECKS["emu_dither"]
DFS_KEY, DFS_FIELDS = CHECKS["thermal_dfs_loop"]
DSE_KEY, DSE_FIELDS = CHECKS["dse_sweep"]


def recorded(workload="emu_dither"):
    bench = json.loads(
        (REPO_ROOT / f"docs/perf/BENCH_{workload}.json").read_text()
    )
    return bench["fingerprint"]


def copy(data):
    return json.loads(json.dumps(data))


def test_recorded_runs_have_every_checked_field():
    assert set(EMU_FIELDS) <= set(recorded()[EMU_KEY])
    assert DFS_KEY is None
    assert set(DFS_FIELDS) <= set(recorded("thermal_dfs_loop"))
    assert DSE_KEY is None
    assert set(DSE_FIELDS) <= set(recorded("dse_sweep"))


def test_checker_parses_perfbench_output_and_flags_a_moved_field():
    moved = copy(recorded())
    moved["event_driven"]["end_cycle"] += 122
    output = f"iteration wall s: 1.2\nfingerprint {json.dumps(moved)}\ncheck ok\n"
    measured = tool.fingerprint(output)
    assert tool.mismatches(recorded(), recorded(), EMU_KEY, EMU_FIELDS) == []
    assert tool.mismatches(recorded(), measured, EMU_KEY, EMU_FIELDS) == [
        ("end_cycle", recorded()["event_driven"]["end_cycle"],
         moved["event_driven"]["end_cycle"]),
    ]


def test_checker_flags_per_window_statistics_the_totals_miss():
    # Counts that land in the wrong window keep every total but move the
    # per-window power: the trace digest and the peak temperature.
    moved = copy(recorded())
    moved["event_driven"]["trace_digest"] = "0" * 64
    moved["event_driven"]["peak_k"] += 1e-9
    flagged = [field for field, _, _ in
               tool.mismatches(recorded(), moved, EMU_KEY, EMU_FIELDS)]
    assert flagged == ["trace_digest", "peak_k"]


def test_checker_reads_the_flat_dfs_loop_fingerprint():
    dfs = recorded("thermal_dfs_loop")
    assert dfs["trace_digest"].startswith("fe6403ad")
    assert (dfs["windows"], dfs["dfs_transitions"]) == (11083, 98)
    output = f"fingerprint {json.dumps(dfs)}\n"
    assert tool.mismatches(dfs, tool.fingerprint(output), DFS_KEY,
                           DFS_FIELDS) == []


def test_checker_flags_a_moved_dfs_loop_trace():
    # One bit of one window's power moves the digest and usually the
    # peak; a policy that reacts one window late moves the transitions.
    dfs = recorded("thermal_dfs_loop")
    moved = copy(dfs)
    moved["trace_digest"] = "f" * 64
    moved["dfs_transitions"] += 1
    moved["peak_k"] += 1e-12
    moved["cache_misses"] += 1  # not checked: a profiled run has no caches
    flagged = [field for field, _, _ in
               tool.mismatches(dfs, moved, DFS_KEY, DFS_FIELDS)]
    assert flagged == ["trace_digest", "dfs_transitions", "peak_k"]


def test_checker_flags_a_moved_design_sweep():
    # One design's result moving changes the front digest or a sum; the
    # sweep has no caches and no end cycle to check.
    dse = recorded("dse_sweep")
    assert dse["windows"] == 12096  # 1008 designs x 12 windows
    assert tool.mismatches(dse, copy(dse), DSE_KEY, DSE_FIELDS) == []
    moved = copy(dse)
    moved["trace_digest"] = "e" * 64
    moved["instructions"] += 1
    moved["peak_k"] += 1e-12
    moved["end_cycle"] += 1  # not checked
    flagged = [field for field, _, _ in
               tool.mismatches(dse, moved, DSE_KEY, DSE_FIELDS)]
    assert flagged == ["trace_digest", "instructions", "peak_k"]
