"""Rule: every registry entry is tested and documented.

The scenario layer resolves floorplans, policies, workloads, both
backend families, tech nodes and presets by registry name; an entry
nobody tests silently rots (the registry cross-product property test
exists precisely because backends drifted), and an entry the docs never
mention is unusable from the JSON scenario surface.

Every entry registers where it is defined, so the rule statically
collects every name registered in the watched registries —
``@X.register("name")`` decorators and direct ``X.register("name",
obj)`` calls — then requires each name to appear (as a whole word) in
at least one test module under ``tests/`` and once in the docs corpus
(``docs/*.md`` or ``README.md``).  The analysis rules' own registry is
watched too, which is what forces every rule to ship fixtures and a
docs-catalog entry — and so is the observability catalog
(``OBS_METRICS`` / ``OBS_SPANS`` in :mod:`repro.obs.catalog`), holding
every metric and span name to the same tested-and-documented bar.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import ANALYSIS_RULES, Rule

WATCHED_REGISTRIES = (
    "WORKLOADS",
    "POLICIES",
    "FLOORPLANS",
    "SOLVER_BACKENDS",
    "EMULATION_BACKENDS",
    "TECH_NODES",
    "PRESETS",
    "ANALYSIS_RULES",
    "OBS_METRICS",
    "OBS_SPANS",
)


def _registration_sites(
    module: SourceModule,
) -> Iterator[tuple[str, str, int]]:
    """Yield ``(registry, name, lineno)`` registrations in a module."""
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in WATCHED_REGISTRIES
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.func.value.id, node.args[0].value, node.lineno


def _word_in_corpus(name: str, corpus: dict[str, str]) -> bool:
    pattern = re.compile(
        rf"(?<![A-Za-z0-9_-]){re.escape(name)}(?![A-Za-z0-9_-])"
    )
    return any(pattern.search(text) for text in corpus.values())


@ANALYSIS_RULES.register("registry-coverage")
class RegistryCoverageRule(Rule):
    """Registered names must appear in tests/ and in docs/."""

    rule_id = "registry-coverage"
    summary = (
        "every WORKLOADS/POLICIES/FLOORPLANS/SOLVER_BACKENDS/"
        "EMULATION_BACKENDS/TECH_NODES/PRESETS/ANALYSIS_RULES/OBS_METRICS/"
        "OBS_SPANS entry is exercised by a test and mentioned in docs"
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        tests = project.corpus_texts(prefix="tests/", suffix=".py")
        docs = {
            **project.corpus_texts(prefix="docs/", suffix=".md"),
            **project.corpus_texts(prefix="README.md"),
        }
        if not tests and not docs:
            return []  # single-file fixture projects carry no corpus
        findings: list[Finding] = []
        for module in project.modules:
            for registry, name, lineno in _registration_sites(module):
                if tests and not _word_in_corpus(name, tests):
                    findings.append(
                        self.finding(
                            module.relpath,
                            lineno,
                            f"{registry} entry {name!r} is not "
                            f"referenced by any test module; registry "
                            f"entries must be reachable from tests/",
                        )
                    )
                if docs and not _word_in_corpus(name, docs):
                    findings.append(
                        self.finding(
                            module.relpath,
                            lineno,
                            f"{registry} entry {name!r} is not "
                            f"mentioned in docs/ or README.md; name it "
                            f"where users can find it",
                        )
                    )
        return findings
