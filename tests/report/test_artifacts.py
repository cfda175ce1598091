"""The reproduction pipeline: checks, artifacts, pipeline rendering."""

import json

import pytest

from repro.report.artifacts import (
    ARTIFACTS,
    Artifact,
    Check,
    fig3_artifact,
)
from repro.report.pipeline import (
    default_artifact_names,
    render_markdown,
    render_verdicts,
    run_artifacts,
    to_json,
    write_report,
)
from repro.report.render import markdown_table
from repro.util.records import Table


# -- Check semantics ---------------------------------------------------------


def test_check_exact_equality_uses_float_band():
    check = Check("x", expected=0.3)
    assert check.evaluate({"x": 0.1 + 0.2}).passed
    assert not check.evaluate({"x": 0.300001}).passed


def test_check_relative_tolerance():
    check = Check("x", expected=100.0, rel_tol=0.10)
    assert check.evaluate({"x": 109.0}).passed
    assert not check.evaluate({"x": 111.0}).passed


def test_check_bounds():
    assert Check("x", low=1.0).evaluate({"x": 1.0}).passed
    assert not Check("x", low=1.0).evaluate({"x": 0.5}).passed
    assert Check("x", high=2.0).evaluate({"x": 2.0}).passed
    assert Check("x", low=1.0, high=2.0).evaluate({"x": 1.5}).passed
    assert not Check("x", low=1.0, high=2.0).evaluate({"x": 2.5}).passed


def test_check_missing_metric_fails_with_note():
    result = Check("absent", expected=1.0).evaluate({})
    assert not result.passed
    assert result.value is None
    assert "missing" in result.note


def test_check_expectation_strings():
    assert Check("x", expected=5.0).expectation == "= 5"
    assert "±10%" in Check("x", expected=5.0, rel_tol=0.1).expectation
    assert Check("x", low=1.0, high=2.0).expectation == "in [1, 2]"
    assert Check("x", low=3.0).expectation == ">= 3"


# -- Artifact execution ------------------------------------------------------


def _fake_artifact(values, checks=(), fail=False):
    def extract(results):
        if fail:
            raise RuntimeError("broken extractor")
        return values, "the body"

    return Artifact(
        name="fake",
        title="Fake",
        paper_ref="nowhere",
        description="test double",
        extract=extract,
        checks=checks,
    )


def test_artifact_run_evaluates_checks():
    artifact = _fake_artifact({"x": 5.0}, checks=(Check("x", expected=5.0),))
    result = artifact.run()
    assert result.ok
    assert result.checks_passed == 1
    assert result.body == "the body"
    payload = result.to_dict()
    assert payload["ok"] and payload["checks"][0]["passed"]
    json.dumps(payload)  # must be JSON-serializable


def test_artifact_failing_check_marks_not_ok():
    artifact = _fake_artifact({"x": 5.0}, checks=(Check("x", expected=4.0),))
    result = artifact.run()
    assert not result.ok
    assert "FAIL" in render_verdicts([result])


def test_artifact_error_is_captured_not_raised():
    result = _fake_artifact({}, fail=True).run()
    assert not result.ok
    assert "broken extractor" in result.error
    assert "ERROR" in render_verdicts([result])


# -- the registered paper artifacts -----------------------------------------


def test_all_registered_artifacts():
    assert ARTIFACTS.names() == [
        "fig3", "fig6", "obs_overview", "pareto_front",
        "policy_comparison", "table1", "table2", "table3",
    ]


def test_default_order_follows_the_paper():
    assert default_artifact_names() == [
        "table1", "table2", "table3", "fig3", "fig6", "obs_overview",
        "pareto_front", "policy_comparison",
    ]


def test_table1_artifact_reproduces_paper_numbers():
    result = ARTIFACTS.get("table1")().run()
    assert result.ok, render_verdicts([result])
    assert result.values["arm11_max_power_w"] == pytest.approx(1.5)
    assert "RISC 32-ARM11" in result.body


def test_table2_artifact_reproduces_paper_numbers():
    result = ARTIFACTS.get("table2")().run()
    assert result.ok, render_verdicts([result])
    assert result.values["grid_cells_660_class"] == 648
    # The replay-backed property checks: record -> replay reproduces
    # the live digest exactly, and frozen-k silicon runs cooler.
    assert result.values["replay_digest_match"] == 1.0
    assert result.values["nonlinear_peak_excess_k"] > 0.0
    assert "Replay validation" in result.body


def test_fig3_artifact_runs_batched_groups():
    # A scaled-down sweep: 2 resolutions x 2 policies through run_batched.
    artifact = fig3_artifact(resolutions=((3, 3), (5, 5)), max_windows=4)
    assert artifact.batched
    assert artifact.use_trace_store
    result = artifact.run()
    assert result.error is None, result.error
    assert result.values["scenarios"] == 4
    assert result.values["structures"] == 2
    assert result.values["cells_max"] == 2 * 5 * 5
    # The open-loop (noTM) variant of the second resolution replayed the
    # first resolution's recording instead of re-emulating.
    assert result.values["replayed_scenarios"] == 1
    # Both members of a structure group share the group's wall time, so
    # the extractor found exactly two members per group.
    assert "run_batched" in result.body


def test_fig6_artifact_shape():
    result = ARTIFACTS.get("fig6")().run()
    assert result.ok, render_verdicts([result])
    assert result.values["unmanaged_peak_k"] > result.values["managed_peak_k"]
    assert result.body.count("```") == 4  # two fenced ASCII charts


def test_policy_comparison_artifact_races_all_builtins():
    artifact = ARTIFACTS.get("policy_comparison")()
    assert artifact.batched and artifact.capture_trace
    result = artifact.run()
    assert result.ok, render_verdicts([result])
    # The acceptance bar: >= 6 policies (4 ported + >= 2 exploration).
    assert result.values["policies_compared"] >= 6
    assert (
        result.values["managed_peak_max_k"]
        < result.values["unmanaged_peak_k"]
    )
    # Per-policy stats from the report() hook reach the rendered body.
    assert "switches=" in result.body
    for name in ("dual_threshold", "dvfs_ladder", "pid", "predictive"):
        assert f"peak_k_{name}" in result.values


# -- pipeline rendering ------------------------------------------------------


def test_run_artifacts_unknown_name_raises_up_front():
    with pytest.raises(ValueError, match="unknown paper artifact"):
        run_artifacts(names=["no_such_artifact"])


def test_pipeline_render_and_write(tmp_path):
    results = run_artifacts(names=["table1", "table2"], progress=None)
    markdown = render_markdown(results)
    assert "# Paper reproduction report" in markdown
    assert "[table1](#table1)" in markdown
    assert "### Checks — PASS" in markdown
    payload = to_json(results)
    assert payload["ok"] is True
    assert [a["name"] for a in payload["artifacts"]] == ["table1", "table2"]

    md_path, json_path = write_report(results, output_dir=tmp_path)
    assert md_path.read_text() == markdown
    assert json.loads(json_path.read_text())["ok"] is True


def test_markdown_table_escapes_pipes():
    table = Table(["a", "b"], title="T")
    table.add_row("x|y", "z")
    text = markdown_table(table)
    assert "x\\|y" in text
    assert text.splitlines()[0] == "*T*"
