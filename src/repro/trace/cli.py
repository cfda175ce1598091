"""``python -m repro trace`` — record, replay and inspect power traces.

Usage::

    python -m repro trace record <scenario.json|preset> [-o FILE.npz]
                                 [--store DIR] [--json]
    python -m repro trace replay <archive.npz|digest> [--store DIR]
                                 [--backend NAME] [--grid-mode MODE]
                                 [--die-resolution NxN]
                                 [--spreader-resolution NxN]
                                 [--check-digest] [--json]
    python -m repro trace info   <archive.npz|digest> [--store DIR]
    python -m repro trace list   [--store DIR]

``record`` runs the scenario live with a capture attached and files the
archive into the content-addressed store (and/or an explicit ``-o``
path).  ``replay`` re-runs only the SW thermal side from the recording;
thermal-side flags override the recorded knobs.  ``--check-digest``
makes replay exit nonzero unless the replayed trace digest matches the
recorded live digest — the CI record→replay equivalence gate.
"""

import argparse
import json
import pathlib
import sys

from repro.trace.format import load_archive
from repro.trace.store import DEFAULT_STORE_DIR, TraceStore


def _open_archive(ref, store_dir):
    """Resolve an archive reference: a path to an ``.npz``, or a digest
    (full or unambiguous prefix) inside the store."""
    path = pathlib.Path(ref)
    if path.is_file() or path.with_suffix(".npz").is_file():
        return load_archive(path), str(path)
    store = TraceStore(store_dir)
    matches = [d for d in store.digests() if d.startswith(ref)]
    if len(matches) == 1:
        return store.get(matches[0]), str(store.path_for(matches[0]))
    if len(matches) > 1:
        raise ValueError(
            f"digest prefix {ref!r} is ambiguous in {store_dir} "
            f"({len(matches)} matches)"
        )
    raise ValueError(
        f"{ref!r} is neither an archive file nor a digest in {store_dir}"
    )


def _resolution(text):
    try:
        nx, ny = text.lower().split("x")
        return [int(nx), int(ny)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NxM (e.g. 12x12), got {text!r}"
        )


def _record_main(args):
    from repro.scenario.presets import load_scenarios
    from repro.trace.capture import record

    (scenario,) = load_scenarios(args.spec, single=True)
    _, report, archive = record(scenario)
    placed = []
    if args.output:
        placed.append(str(archive.save(args.output)))
    if args.store or not args.output:
        store = TraceStore(args.store or DEFAULT_STORE_DIR)
        digest = store.put(archive)
        placed.append(str(store.path_for(digest)))
    if args.as_json:
        print(json.dumps({
            "digest": archive.scenario_digest,
            "windows": archive.windows,
            "paths": placed,
            "report": report.to_dict(),
        }, indent=2))
    else:
        print(report.summary())
        print(f"recorded {archive.windows} windows -> {', '.join(placed)}")
        print(f"digest {archive.scenario_digest}")
    return 0


def _replay_main(args):
    from repro.trace.replay import replay

    archive, source = _open_archive(args.archive, args.store)
    overrides = {}
    if args.backend:
        overrides["solver_backend"] = args.backend
    if args.grid_mode:
        overrides["grid_mode"] = args.grid_mode
    if args.die_resolution:
        overrides["die_resolution"] = args.die_resolution
    if args.spreader_resolution:
        overrides["spreader_resolution"] = args.spreader_resolution
    player, report = replay(
        archive, config=overrides or None, source=source
    )
    digest_matches = player.trace.digest() == archive.metadata.get(
        "trace_digest"
    )
    if args.as_json:
        print(json.dumps({
            "report": report.to_dict(),
            "trace_digest": player.trace.digest(),
            "recorded_digest": archive.metadata.get("trace_digest"),
            "digest_matches": digest_matches,
        }, indent=2))
    else:
        print(report.summary())
        verdict = "matches" if digest_matches else "DIFFERS from"
        print(
            f"replayed trace digest {verdict} the recorded live run"
            + (f" (overrides: {overrides})" if overrides else "")
        )
    if args.check_digest and not digest_matches:
        print(
            "error: replay digest mismatch "
            f"(replayed {player.trace.digest()}, "
            f"recorded {archive.metadata.get('trace_digest')})",
            file=sys.stderr,
        )
        return 1
    return 0


def _info_main(args):
    archive, source = _open_archive(args.archive, args.store)
    if args.as_json:
        print(json.dumps(archive.metadata, indent=2, sort_keys=True))
    else:
        print(archive.summary())
        print(f"  from {source}")
    return 0


def _list_main(args):
    store = TraceStore(args.store)
    rows = store.entries()
    if args.as_json:
        print(json.dumps(
            [{"digest": digest, **{
                k: meta.get(k)
                for k in ("windows", "sampling_period_s", "floorplan")
            }, "scenario": (meta.get("scenario") or {}).get("name")}
             for digest, meta in rows],
            indent=2,
        ))
        return 0
    if not rows:
        print(f"(no traces in {args.store})")
        return 0
    for digest, meta in rows:
        scenario = (meta.get("scenario") or {}).get("name", "(unscripted)")
        print(
            f"{digest[:16]}  {meta.get('windows', '?'):>6} windows  "
            f"{meta.get('floorplan', '?'):10s}  {scenario}"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Record, replay and inspect power-trace archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run a scenario live and record it")
    rec.add_argument("spec", help="scenario JSON file or preset name")
    rec.add_argument("-o", "--output", metavar="FILE.npz",
                     help="also save the archive to this path")
    rec.add_argument("--store", metavar="DIR",
                     help=f"trace store directory (default "
                          f"{DEFAULT_STORE_DIR} unless -o is given)")
    rec.add_argument("--json", action="store_true", dest="as_json")

    rep = sub.add_parser("replay", help="re-run the thermal side only")
    rep.add_argument("archive", help="archive path or store digest (prefix)")
    rep.add_argument("--store", metavar="DIR", default=DEFAULT_STORE_DIR)
    rep.add_argument("--backend", metavar="NAME",
                     help="override the thermal solver backend")
    rep.add_argument("--grid-mode", choices=("component", "uniform"))
    rep.add_argument("--die-resolution", type=_resolution, metavar="NxN")
    rep.add_argument("--spreader-resolution", type=_resolution, metavar="NxN")
    rep.add_argument("--check-digest", action="store_true",
                     help="exit 1 unless the replayed trace digest matches "
                          "the recorded live digest")
    rep.add_argument("--json", action="store_true", dest="as_json")

    info = sub.add_parser("info", help="print an archive's metadata")
    info.add_argument("archive", help="archive path or store digest (prefix)")
    info.add_argument("--store", metavar="DIR", default=DEFAULT_STORE_DIR)
    info.add_argument("--json", action="store_true", dest="as_json")

    lst = sub.add_parser("list", help="list the trace store")
    lst.add_argument("--store", metavar="DIR", default=DEFAULT_STORE_DIR)
    lst.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    handler = {
        "record": _record_main,
        "replay": _replay_main,
        "info": _info_main,
        "list": _list_main,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
