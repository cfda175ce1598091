"""Unit tests of the analysis framework itself: findings, suppression
parsing, the walker's suppression filtering, baselines, and the rule
registry.  Rule-by-rule behaviour is covered by the fixture projects in
``tests/analysis/test_fixtures.py``.

Registered rule ids (kept literal so the registry-coverage rule can see
every id referenced from a test module): determinism,
digest-participation, lock-discipline, registry-coverage,
serialization-roundtrip, suppression-hygiene.
"""

import pytest

from repro.analysis.baseline import load_baseline, save_baseline, split_findings
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import ANALYSIS_RULES
from repro.analysis.walker import make_rules, run_rules

RULE_IDS = [
    "determinism",
    "digest-participation",
    "lock-discipline",
    "registry-coverage",
    "serialization-roundtrip",
    "suppression-hygiene",
]


def test_registry_matches_literal_rule_list():
    assert make_rules() and ANALYSIS_RULES.names() == RULE_IDS


# -- findings ----------------------------------------------------------------


def test_finding_format_and_key():
    finding = Finding(
        path="src/repro/x.py",
        line=7,
        rule_id="determinism",
        severity="error",
        message="id() in sort key",
    )
    assert finding.format() == (
        "src/repro/x.py:7: error [determinism] id() in sort key"
    )
    # Line-free key: reformatting must not resurrect baselined findings.
    assert finding.suppression_key == (
        "determinism::src/repro/x.py::id() in sort key"
    )
    assert Finding.from_dict(finding.to_dict()) == finding


def test_finding_rejects_bad_severity_and_empty_rule():
    with pytest.raises(ValueError, match="severity"):
        Finding("a.py", 1, "determinism", "fatal", "m")
    with pytest.raises(ValueError, match="rule id"):
        Finding("a.py", 1, "", "error", "m")


def test_findings_sort_by_location():
    one = Finding("a.py", 2, "determinism", "error", "m")
    two = Finding("a.py", 10, "determinism", "error", "m")
    other = Finding("b.py", 1, "determinism", "error", "m")
    assert sorted([other, two, one]) == [one, two, other]


# -- suppression parsing -----------------------------------------------------


def test_suppression_trailing_and_standalone():
    module = SourceModule.parse(
        "src/repro/m.py",
        "x = id(0)  # repro: allow[determinism] — interned key, stable\n"
        "# repro: allow[determinism, lock-discipline] — both fine here\n"
        "y = id(1)\n"
        "z = id(2)\n",
    )
    assert module.is_suppressed(1, "determinism")
    assert module.is_suppressed(3, "determinism")  # standalone, line above
    assert module.is_suppressed(3, "lock-discipline")
    assert not module.is_suppressed(4, "determinism")  # two lines below
    assert not module.is_suppressed(1, "lock-discipline")
    reasons = [s.reason for s in module.suppressions]
    assert reasons == ["interned key, stable", "both fine here"]


def test_walker_drops_suppressed_findings():
    source = (
        "def key(obj):\n"
        "    # repro: allow[determinism] — identity grouping is intended\n"
        "    return id(obj)\n"
    )
    project = Project.from_sources({"src/repro/util/keys.py": source})
    findings = run_rules(project, make_rules(["determinism"]))
    assert findings == []
    # Same code without the comment fires.
    bare = project.modules[0].text.replace(
        "    # repro: allow[determinism] — identity grouping is intended\n",
        "",
    )
    project = Project.from_sources({"src/repro/util/keys.py": bare})
    findings = run_rules(project, make_rules(["determinism"]))
    assert [f.rule_id for f in findings] == ["determinism"]


def test_make_rules_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown analysis rule"):
        make_rules(["no-such-rule"])


# -- baseline ----------------------------------------------------------------


def test_baseline_roundtrip_and_split(tmp_path):
    baseline_path = tmp_path / "analysis-baseline.json"
    old = Finding("src/repro/a.py", 3, "determinism", "error", "old issue")
    new = Finding("src/repro/b.py", 9, "determinism", "error", "new issue")
    assert load_baseline(baseline_path) == set()  # missing file is empty

    keys = save_baseline(baseline_path, [old])
    assert keys == {old.suppression_key}
    assert load_baseline(baseline_path) == keys

    split = split_findings([old, new], keys)
    assert split.baselined == (old,)
    assert split.new == (new,)
    assert split.stale_keys == ()

    # The old finding stops firing: its key is reported stale.
    split = split_findings([new], keys)
    assert split.new == (new,)
    assert split.stale_keys == (old.suppression_key,)


def test_baseline_ignores_line_numbers(tmp_path):
    baseline_path = tmp_path / "b.json"
    finding = Finding("src/repro/a.py", 3, "determinism", "error", "m")
    keys = save_baseline(baseline_path, [finding])
    moved = Finding("src/repro/a.py", 30, "determinism", "error", "m")
    assert split_findings([moved], keys).new == ()


def test_load_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "b.json"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="baseline"):
        load_baseline(bad)
