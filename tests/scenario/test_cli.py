"""The ``python -m repro`` entry point."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.power.models import make_tech_node
from repro.scenario.presets import PRESETS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "argv", [["lint", "--list-rules"], ["obs", "catalog"], ["policies"]],
    ids=" ".join,
)
def test_listing_subcommands_import_no_numpy_or_scipy(argv):
    """A subcommand imports what it runs: listing lint rules, metrics or
    policies in a fresh interpreter leaves NumPy and SciPy unloaded."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv!r})\n"
        "print(status, [m for m in ('numpy', 'scipy') if m in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert result.stdout.strip() == "0 []"


def test_list_presets(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS.names():
        assert name in out


def test_run_preset(capsys):
    assert main(["matrix_quickstart"]) == 0
    out = capsys.readouterr().out
    assert "matrix_quickstart" in out
    assert "workload done" in out


def test_dump_then_run_json_file(tmp_path, capsys):
    assert main(["matrix_quickstart", "--dump"]) == 0
    dumped = capsys.readouterr().out
    spec = tmp_path / "scenario.json"
    spec.write_text(dumped)
    assert main([str(spec)]) == 0
    assert "workload done" in capsys.readouterr().out


def test_run_suite_file_with_workers(tmp_path, capsys):
    scenario = PRESETS.get("matrix_quickstart")()
    suite = {
        "name": "suite",
        "scenarios": [
            dict(scenario.to_dict(), name="first"),
            dict(scenario.to_dict(), name="second"),
        ],
    }
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps(suite))
    assert main([str(spec), "--workers", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in payload] == ["first", "second"]
    assert all(r["error"] is None for r in payload)
    assert all(r["report"]["workload_done"] for r in payload)


def test_unknown_spec_errors(capsys):
    assert main(["no_such_preset_or_file"]) == 2
    err = capsys.readouterr().err
    assert "neither a readable JSON file nor a preset" in err


def test_failing_scenario_sets_exit_code(tmp_path, capsys):
    scenario = PRESETS.get("matrix_quickstart")().to_dict()
    scenario["floorplan"] = "missing"
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(scenario))
    assert main([str(spec)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_no_spec_prints_usage(capsys):
    assert main([]) == 2


def _spec_with_every_section():
    """``dithering_noc`` with a bus and a full tech-node dict added, so a
    scenario file reaches every section a key can be misspelled in."""
    scenario = PRESETS.get("dithering_noc")().to_dict()
    scenario["platform"]["bus"] = {"name": "bus"}
    scenario["config"]["tech_node"] = make_tech_node("65nm").to_dict()
    return scenario


@pytest.mark.parametrize(
    "section, what",
    [
        ((), "scenario"),
        (("config",), "config"),
        (("config", "tech_node"), "tech node"),
        (("config", "tech_node", "points", 0), "operating point"),
        (("platform",), "platform"),
        (("platform", "cores", 0), "core"),
        (("platform", "icache"), "cache"),
        (("platform", "dcache"), "cache"),
        (("platform", "bus"), "bus"),
        (("platform", "noc"), "noc"),
    ],
    ids=lambda value: ".".join(map(str, value)) if isinstance(value, tuple) else value,
)
def test_an_unknown_key_in_any_section_exits_2(tmp_path, capsys, section, what):
    scenario = _spec_with_every_section()
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(scenario))
    assert main([str(spec), "--dump"]) == 0
    capsys.readouterr()
    target = scenario
    for key in section:
        target = target[key]
    target["bogus_knob"] = 1
    spec.write_text(json.dumps(scenario))
    assert main([str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unknown {what} keys: bogus_knob (")
    assert captured.out == ""


@pytest.mark.parametrize("suite, message", [
    ({"name": "suite", "bogus_knob": 1}, "unknown suite keys: bogus_knob ("),
    ({}, "a suite needs a 'name' entry"),
])
def test_a_bad_suite_exits_2(tmp_path, capsys, suite, message):
    scenario = PRESETS.get("matrix_quickstart")().to_dict()
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps(dict(suite, scenarios=[scenario])))
    assert main([str(spec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("config", "virtual_hz", "fast",
         "config virtual_hz must be a number, got 'fast'"),
        ("config", "refine_critical", 1.5,
         "config refine_critical must be an integer, got 1.5"),
        ("config", "spreader_resolution", 5,
         "config spreader_resolution must be a list, got 5"),
        ("platform", None, 5,
         "a scenario's platform must be a dict or null, got int"),
        ("config", None, 5, "a scenario's config must be a dict, got int"),
        ("workload", None, [],
         "a scenario's workload must be a spec name or dict, got list"),
    ],
    ids=["number", "integer", "list", "platform", "config", "workload"],
)
def test_a_wrong_typed_value_exits_2(tmp_path, capsys, section, key, value,
                                     message):
    scenario = PRESETS.get("matrix_quickstart")().to_dict()
    if key is None:
        scenario[section] = value
    else:
        scenario[section][key] = value
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(scenario))
    assert main([str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
