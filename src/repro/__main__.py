"""``python -m repro`` — run scenarios from JSON files or named presets.

Usage::

    python -m repro <scenario.json | preset-name> [--workers N] [--json]
    python -m repro <suite.json> --batched [--backend cached_lu]
    python -m repro --list-presets
    python -m repro --list-backends
    python -m repro matrix_quickstart --dump > scenario.json
    python -m repro report [--artifact NAME] [--check]
    python -m repro policies [--verbose] [--json]
    python -m repro trace record|replay|info|list ...
    python -m repro farm serve|submit|status|workers|work ...
    python -m repro dse [--check] [--out report.json] ...
    python -m repro lint [--check] [--list-rules] [--rule ID] ...
    python -m repro obs timeline|metrics|catalog ...

A spec file holds either one scenario (``Scenario.to_dict()`` form) or a
suite (``{"name": ..., "scenarios": [...]}``); every run prints the
report summary, and ``--json`` emits the full serialized results.  The
``report`` subcommand runs the paper-reproduction pipeline
(:mod:`repro.report`): all registered artifacts, one ``REPRODUCTION.md``.
The ``policies`` subcommand lists the registered thermal-management
policies (:mod:`repro.policy`) with their parameters.
"""

import argparse
import json
import sys
from dataclasses import replace


def _policies_main(argv):
    """``python -m repro policies`` — list registered thermal policies."""
    parser = argparse.ArgumentParser(
        prog="python -m repro policies",
        description="List the registered thermal-management policies "
        "(repro.policy) a PolicySpec can name.",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="also show each policy's parameters and example spec params",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the listing as JSON",
    )
    args = parser.parse_args(argv)

    from repro.policy.base import POLICIES
    from repro.policy.builtin import EXAMPLE_PARAMS, describe_policies

    rows = describe_policies(POLICIES)
    if args.as_json:
        print(json.dumps({
            name: {
                "summary": summary,
                "parameters": parameters,
                "example_params": EXAMPLE_PARAMS.get(name),
            }
            for name, parameters, summary in rows
        }, indent=2))
        return 0
    for name, parameters, summary in rows:
        print(f"{name:16s} {summary}")
        if args.verbose:
            print(f"{'':16s}   params: {parameters or '(none)'}")
            if name in EXAMPLE_PARAMS:
                print(f"{'':16s}   example: {json.dumps(EXAMPLE_PARAMS[name])}")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "report":
        # The reproduction pipeline has its own flags; hand it the rest.
        from repro.report.cli import main as report_main

        return report_main(argv[1:])
    if argv and argv[0] == "policies":
        return _policies_main(argv[1:])
    if argv and argv[0] == "trace":
        # Power-trace capture & replay (repro.trace) has its own flags.
        from repro.trace.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "farm":
        # The distributed run-farm (repro.farm) has its own flags.
        from repro.farm.cli import main as farm_main

        return farm_main(argv[1:])
    if argv and argv[0] == "dse":
        # Heterogeneous design-space exploration (repro.dse).
        from repro.dse.cli import main as dse_main

        return dse_main(argv[1:])
    if argv and argv[0] == "lint":
        # Static analysis of the repo's invariants (repro.analysis).
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "obs":
        # Observability: span-log timelines and metric snapshots.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run thermal co-emulation scenarios from JSON specs or presets.",
    )
    parser.add_argument(
        "spec", nargs="?",
        help="path to a scenario/suite JSON file, a preset name, or the "
        "'report' subcommand (python -m repro report --help)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel worker processes for multi-scenario specs (default 1)",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list preset names and exit"
    )
    parser.add_argument(
        "--list-backends", action="store_true",
        help="list thermal solver backend names and exit",
    )
    parser.add_argument(
        "--backend", metavar="NAME",
        help="override every scenario's thermal solver backend "
        "(sparse_be, cached_lu, batched_lu, ...)",
    )
    parser.add_argument(
        "--list-emulation-backends", action="store_true",
        help="list emulation backend names and exit",
    )
    parser.add_argument(
        "--emulation-backend", metavar="NAME",
        help="override every scenario's emulation backend "
        "(event_driven, windowed, cycle_accurate)",
    )
    parser.add_argument(
        "--batched", action="store_true",
        help="co-step structure-sharing scenarios through one multi-RHS "
        "thermal solve per window (in-process; ignores --workers)",
    )
    parser.add_argument(
        "--dump", action="store_true",
        help="print the resolved scenario JSON instead of running it",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print results as JSON instead of summaries",
    )
    parser.add_argument(
        "--obs-log", metavar="PATH",
        help="record a JSONL span log of the run (inspect with "
        "'python -m repro obs timeline PATH')",
    )
    args = parser.parse_args(argv)

    # Imported here, not at the top, so that the subcommands above do
    # not load the framework and SciPy.
    from repro.scenario.presets import PRESETS, load_scenarios

    if args.list_presets:
        for name in PRESETS.names():
            scenario = PRESETS.get(name)()
            print(f"{name:24s} {scenario.description}")
        return 0
    if args.list_backends:
        from repro.thermal.backends import SOLVER_BACKENDS

        for name in SOLVER_BACKENDS.names():
            doc = (SOLVER_BACKENDS.get(name).__doc__ or "").strip().splitlines()
            print(f"{name:24s} {doc[0] if doc else ''}")
        return 0
    if args.list_emulation_backends:
        from repro.emulation.backends import EMULATION_BACKENDS

        for name in EMULATION_BACKENDS.names():
            doc = (EMULATION_BACKENDS.get(name).__doc__ or "").strip().splitlines()
            print(f"{name:24s} {doc[0] if doc else ''}")
        return 0
    if not args.spec:
        parser.print_usage()
        return 2

    try:
        scenarios = load_scenarios(args.spec)
        overrides = {
            knob: value
            for knob, value in (
                ("solver_backend", args.backend),
                ("emulation_backend", args.emulation_backend),
            )
            if value
        }
        if overrides:  # rebuilding the config validates the override
            for scenario in scenarios:
                scenario.config = replace(scenario.config, **overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dump:
        payload = (
            scenarios[0].to_dict()
            if len(scenarios) == 1
            else {"name": args.spec, "scenarios": [s.to_dict() for s in scenarios]}
        )
        print(json.dumps(payload, indent=2))
        return 0

    import contextlib

    from repro.scenario.runner import Runner

    observe = contextlib.nullcontext()
    if args.obs_log:
        from repro.obs import tracing as obs_tracing

        observe = obs_tracing.trace_to(args.obs_log)
    with observe:
        runner = Runner(workers=args.workers)
        if args.batched:
            results = runner.run_batched(scenarios)
        else:
            results = runner.run(scenarios)
    if args.as_json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            print(result.summary())
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
