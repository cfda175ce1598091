"""Every dotted ``repro.…`` name the docs cite must exist where they say.

Backticked references in ``docs/*.md`` and ``README.md`` (and the
``from repro… import`` lines of their Python examples) are resolved by
import plus attribute lookup, so a doc that names a package-level path
(``repro.trace.TraceStore``) or a deleted module fails here.
"""

import ast
import importlib
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def resolves(dotted):
    """True when ``dotted`` is a module or an attribute path under one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _doc_pages():
    return sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]


def _references():
    for page in _doc_pages():
        text = page.read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in REFERENCE.finditer(line):
                yield f"{page.name}:{lineno}", match.group(1)
        for block in PYTHON_BLOCK.findall(text):
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).startswith("repro"):
                    for alias in node.names:
                        yield page.name, f"{node.module}.{alias.name}"


def test_docs_references_resolve():
    references = list(_references())
    assert len(references) > 100  # the scan itself still finds them
    broken = [f"{where}: {dotted}" for where, dotted in references
              if not resolves(dotted)]
    assert not broken


def test_resolver_rejects_package_level_and_missing_paths():
    assert resolves("repro.trace.store.TraceStore")
    assert resolves("repro.thermal.floorplan.FLOORPLANS")
    assert not resolves("repro.trace.TraceStore")
    assert not resolves("repro.thermal.FLOORPLANS")
    assert not resolves("repro.mpsoc.trace")
