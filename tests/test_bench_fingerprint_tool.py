"""The CI check that pins the exact interpreter's statistics to the
recorded ``emu_dither`` benchmark run reads its inputs right and catches
a moved statistic (the perfbench run itself is CI's job)."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location(
    "check_bench_fingerprint", REPO_ROOT / "tools" / "check_bench_fingerprint.py"
)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def recorded():
    bench = json.loads((REPO_ROOT / "docs/perf/BENCH_emu_dither.json").read_text())
    return bench["fingerprint"]


def test_recorded_run_has_every_checked_field():
    assert set(tool.FIELDS) <= set(recorded()["event_driven"])


def test_checker_parses_perfbench_output_and_flags_a_moved_field():
    moved = json.loads(json.dumps(recorded()))
    moved["event_driven"]["end_cycle"] += 122
    output = f"iteration wall s: 1.2\nfingerprint {json.dumps(moved)}\ncheck ok\n"
    measured = tool.fingerprint(output)
    assert tool.mismatches(recorded(), recorded()) == []
    assert tool.mismatches(recorded(), measured) == [
        ("end_cycle", recorded()["event_driven"]["end_cycle"],
         moved["event_driven"]["end_cycle"]),
    ]


def test_checker_flags_per_window_statistics_the_totals_miss():
    # Counts that land in the wrong window keep every total but move the
    # per-window power: the trace digest and the peak temperature.
    moved = json.loads(json.dumps(recorded()))
    moved["event_driven"]["trace_digest"] = "0" * 64
    moved["event_driven"]["peak_k"] += 1e-9
    flagged = [field for field, _, _ in tool.mismatches(recorded(), moved)]
    assert flagged == ["trace_digest", "peak_k"]
