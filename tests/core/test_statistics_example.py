"""``examples/statistics_extraction.py`` against its recorded output.

The example walks the sniffer record API end to end (count records, an
event-logging sniffer, an MMIO disable, payload and dispatcher
accounting); its stdout is deterministic, so it is compared byte for
byte with ``data/statistics_extraction.stdout``.  Regenerate that file
with ``PYTHONPATH=src python examples/statistics_extraction.py`` only
when a change to the example's output is intended.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXAMPLE = ROOT / "examples" / "statistics_extraction.py"
EXPECTED = Path(__file__).with_name("data") / "statistics_extraction.stdout"


def test_statistics_example_output_is_unchanged(capsys):
    spec = importlib.util.spec_from_file_location("statistics_extraction", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out == EXPECTED.read_text()
