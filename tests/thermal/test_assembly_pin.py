"""The assembled thermal networks against their recorded bytes.

``tools/pin_assembly.py`` hashes, for every floorplan preset and every
``hetero`` mix of the default design space, at 15 grid configurations,
the capacitances, edges, geometry factors, ambient conductances,
non-linear cells, component order, injection/readout maps and system
matrices of the assembled :class:`~repro.thermal.rc_network.RCNetwork`.
The pin file was written by that tool; regenerate it with the tool
(``python3 tools/pin_assembly.py``), never by hand, and only after a
deliberate change to the thermal model.
"""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "pin_assembly", REPO_ROOT / "tools" / "pin_assembly.py"
)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_every_assembly_matches_its_pin():
    pinned = json.loads(tool.PIN_PATH.read_text())
    current = tool.pins()
    assert len(current) == 390
    moved = [name for name in pinned if current.get(name) != pinned[name]]
    assert current.keys() == pinned.keys()
    assert moved == []


def test_check_mode_reports_a_moved_case(tmp_path, monkeypatch, capsys):
    pins = {"a": {"cells": 3, "edges": 2, "sha256": "00"},
            "b": {"cells": 4, "edges": 5, "sha256": "11"}}
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(tool, "PIN_PATH", path)
    monkeypatch.setattr(tool, "pins", lambda: dict(pins))
    assert tool.main(["--check"]) == 0
    moved = dict(pins, b={"cells": 4, "edges": 5, "sha256": "12"})
    monkeypatch.setattr(tool, "pins", lambda: moved)
    assert tool.main(["--check"]) == 1
    assert "b: pinned" in capsys.readouterr().out
