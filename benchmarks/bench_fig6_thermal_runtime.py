"""Figure 6 — temperature evolution with and without run-time thermal
management.

The paper's flagship experiment is regenerated and checked by the
``fig6`` artifact of the reproduction pipeline (``python -m repro
report``), which runs the MATRIX-TM-class stress presets (unmanaged and
dual-threshold DFS) through the scenario :class:`Runner` and verifies
the published shape: the unmanaged run sails past 350 K, the managed run
oscillates inside the 340-350 K hysteresis band and takes
proportionally longer to finish.  This bench drives the same artifact
components directly so it can also export the two temperature CSVs and
benchmark one closed-loop sampling window, and checks the sensor
threshold-crossing pattern on the DFS run.
"""

from repro.report.artifacts import ARTIFACTS
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.util.records import Table


def test_fig6_temperature_evolution(benchmark, report, results_dir):
    artifact = ARTIFACTS.get("fig6")()
    results = Runner(capture_trace=True).run(list(artifact.scenarios))
    assert all(r.ok for r in results), [r.error for r in results]
    values, body = artifact.extract(results)
    checks = [check.evaluate(values) for check in artifact.checks]
    assert all(c.passed for c in checks), [
        f"{c.metric}={c.formatted_value()} (expected {c.expectation})"
        for c in checks
        if not c.passed
    ]
    report("fig6_thermal_runtime", body)
    unmanaged, managed = results
    (results_dir / "fig6_no_tm.csv").write_text(unmanaged.trace.to_csv())
    (results_dir / "fig6_dfs.csv").write_text(managed.trace.to_csv())

    # Benchmark one closed-loop sampling window (workload + thermal +
    # sensors + policy), the unit of real-time co-emulation.
    framework = PRESETS.get("matrix_tm_dfs")().build()
    benchmark(framework.step_window)


def test_fig6_sensor_crossings(benchmark, report):
    """The DFS trace's threshold crossings alternate over/under, starting
    with the first over-crossing the paper's policy reacts to."""
    managed_fw, _ = PRESETS.get("matrix_tm_dfs")().run()
    # Benchmark the sensor-bank update (the per-window feedback path).
    temps = managed_fw.network.as_map(managed_fw.solver.component_temperatures())
    benchmark(managed_fw.sensors.update, temps, 0.0)
    crossings = managed_fw.sensors.crossings()
    assert crossings, "the stressed run must cross the 350 K threshold"
    table = Table(
        ["time (s)", "component", "crossing", "temp (K)"],
        title="First ten sensor threshold crossings (DFS run)",
    )
    for time_s, component, kind, temp in crossings[:10]:
        table.add_row(f"{time_s:.2f}", component, kind, f"{temp:.2f}")
    report("fig6_sensor_crossings", str(table))
    kinds = [kind for _, _, kind, _ in crossings]
    assert kinds[0] == "over-upper"
    # Per sensor, crossings alternate (hysteresis).
    per_component = {}
    for _, component, kind, _ in crossings:
        per_component.setdefault(component, []).append(kind)
    for component, sequence in per_component.items():
        for a, b in zip(sequence, sequence[1:]):
            assert a != b, f"{component} crossed {a} twice in a row"
