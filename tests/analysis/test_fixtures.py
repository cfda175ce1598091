"""Every rule must trip on its trip fixture and stay quiet on its pass
fixture.

Each fixture is a directory of files under
``tests/analysis/fixtures/<rule-id>/{trip,pass}/``; a file's first line
is a ``# relpath: <mount path>`` header giving the repo-relative path it
is mounted at inside the in-memory fixture project (so a fixture can
impersonate ``src/repro/trace/store.py``, or supply ``tests/``/``docs/``
corpus files).  The meta-test pins the contract for *future* rules:
registering a rule without both fixture kinds and a docs-catalog entry
fails this suite.
"""

import pathlib

import pytest

from repro.analysis.project import Project
from repro.analysis.rules import ANALYSIS_RULES
from repro.analysis.walker import make_rules, run_rules

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RELPATH_HEADER = "# relpath: "


def load_fixture_project(case_dir):
    sources = {}
    for path in sorted(case_dir.iterdir()):
        text = path.read_text()
        header, _, body = text.partition("\n")
        assert header.startswith(RELPATH_HEADER), (
            f"{path} must start with '{RELPATH_HEADER}<mount path>'"
        )
        relpath = header[len(RELPATH_HEADER):].strip()
        assert relpath not in sources, f"duplicate mount {relpath}"
        sources[relpath] = body
    assert sources, f"empty fixture {case_dir}"
    return Project.from_sources(sources)


def rule_findings(rule_id, kind):
    project = load_fixture_project(FIXTURES / rule_id / kind)
    return run_rules(project, make_rules([rule_id]))


def rule_ids():
    make_rules()  # import side effect: populate the registry
    return ANALYSIS_RULES.names()


@pytest.mark.parametrize("rule_id", rule_ids())
def test_trip_fixture_fires(rule_id):
    findings = rule_findings(rule_id, "trip")
    assert findings, f"{rule_id} found nothing in its trip fixture"
    assert {f.rule_id for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", rule_ids())
def test_pass_fixture_is_clean(rule_id):
    findings = rule_findings(rule_id, "pass")
    assert findings == [], (
        f"{rule_id} fired on its pass fixture: "
        + "; ".join(f.format() for f in findings)
    )


def test_every_rule_has_fixtures_and_docs_entry():
    """The add-a-rule contract: both fixture kinds plus a docs mention."""
    catalog = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    for rule_id in rule_ids():
        for kind in ("trip", "pass"):
            case_dir = FIXTURES / rule_id / kind
            assert case_dir.is_dir() and any(case_dir.iterdir()), (
                f"rule {rule_id} is missing its {kind} fixture directory"
            )
        assert f"`{rule_id}`" in catalog, (
            f"rule {rule_id} is not cataloged in docs/static-analysis.md"
        )


def test_trip_fixtures_cover_specifics():
    """Spot-check that the trip fixtures exercise the interesting
    sub-cases, not just one easy violation each."""
    determinism = [f.message for f in rule_findings("determinism", "trip")]
    assert any("id()" in m for m in determinism)
    assert any("random." in m for m in determinism)
    assert any("time.time()" in m for m in determinism)
    assert any("iterating a set" in m for m in determinism)

    locking = [f.message for f in rule_findings("lock-discipline", "trip")]
    assert any("raw open" in m for m in locking)
    assert any("unlocked write" in m for m in locking)

    serialization = [
        f.message for f in rule_findings("serialization-roundtrip", "trip")
    ]
    assert any("to_dict" in m and "height" in m for m in serialization)
    assert any("from_dict" in m and "height" in m for m in serialization)

    digest = [
        f.message for f in rule_findings("digest-participation", "trip")
    ]
    assert any("solver_backend" in m for m in digest)

    coverage = [f.message for f in rule_findings("registry-coverage", "trip")]
    assert any("test module" in m for m in coverage)
    assert any("docs/" in m for m in coverage)

    hygiene = [
        f.message for f in rule_findings("suppression-hygiene", "trip")
    ]
    assert any("no rule id" in m for m in hygiene)
    assert any("unknown rule" in m for m in hygiene)
    assert any("needs a reason" in m for m in hygiene)
