"""The traced benchmark run patches layer entry points by name
(``perfbench/spans.py``): every one must still exist where it is looked
up, the calls its workloads make must still bind, and the
``batched_lu`` alias must keep loading as ``CachedLU``."""

import importlib.util
import inspect
import pathlib

from repro.dse.driver import run_dse
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.thermal.backends import CachedLU, make_backend

REPO_ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location(
    "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_every_traced_entry_point_resolves_on_its_owner():
    points = spans._entry_points()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in points
        if attr not in vars(owner)
    ]
    assert points and not missing


def test_dse_sweep_calls_still_bind():
    """``dse_sweep`` subclasses :class:`Runner`, passing ``library`` on
    to ``run_batched`` by position, and hands ``run_dse`` that runner."""
    inspect.signature(Runner.run_batched).bind(Runner(), [], None)
    inspect.signature(run_dse).bind([], runner=Runner())


def test_batched_lu_loads_as_cached_lu():
    assert type(make_backend("batched_lu")) is CachedLU
    backend = make_backend(
        {"name": "batched_lu", "params": {"refactor_tolerance_kelvin": 0.5}}
    )
    assert type(backend) is CachedLU
    assert backend.refactor_tolerance_kelvin == 0.5


def test_batched_lu_serial_run_matches_cached_lu_bit_for_bit():
    digests = []
    for name in ("cached_lu", "batched_lu"):
        scenario = PRESETS.get("matrix_tm_cached")()
        scenario.max_windows = 60
        scenario.config.solver_backend = name
        framework, _ = scenario.run()
        digests.append(framework.trace.digest())
    assert digests[0] == digests[1]
