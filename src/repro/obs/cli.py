"""``python -m repro obs`` — inspect span logs and metric snapshots.

Subcommands:

* ``obs timeline LOG.jsonl`` — fold a recorded JSONL span log (from
  ``python -m repro run --obs-log``) into a per-phase breakdown;
  ``--json`` emits the machine-readable summary instead.
* ``obs metrics`` — print the current process-wide registry snapshot
  (mostly useful under ``--json``/``--prometheus`` from embedding
  code), or scrape a farm service with ``--url http://host:port`` and
  print its Prometheus text.
* ``obs catalog`` — list every cataloged metric and span name with its
  description.
"""

import argparse
import json
import sys
import urllib.request

from repro.obs import catalog, metrics
from repro.obs.timeline import RunTimeline


def _timeline(args):
    try:
        with open(args.log, encoding="utf-8") as log:
            timeline = RunTimeline.from_jsonl(log)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(timeline.summary(), indent=2, sort_keys=True))
    else:
        print(timeline.render())
    return 0


def _metrics(args):
    if args.url:
        url = args.url.rstrip("/") + "/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0
    registry = metrics.REGISTRY
    if args.prometheus:
        sys.stdout.write(registry.render_prometheus())
    else:
        sys.stdout.write(registry.dump_json())
    return 0


def _catalog(args):
    rows = [("metric", name) for name in catalog.metric_names()]
    rows += [("span", name) for name in catalog.span_names()]
    if args.json:
        print(json.dumps(
            {
                "metrics": {
                    name: catalog.describe(name)
                    for name in catalog.metric_names()
                },
                "spans": {
                    name: catalog.describe(name)
                    for name in catalog.span_names()
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    width = max(len(name) for _, name in rows)
    for kind, name in rows:
        print(f"{kind:6s} {name:{width}s}  {catalog.describe(name)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="inspect observability data (span logs, metrics)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    timeline = sub.add_parser(
        "timeline", help="render a per-phase breakdown from a span log"
    )
    timeline.add_argument("log", help="JSONL span log path")
    timeline.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary",
    )
    timeline.set_defaults(func=_timeline)

    metrics_cmd = sub.add_parser(
        "metrics", help="print a metrics snapshot"
    )
    metrics_cmd.add_argument(
        "--url", help="scrape a farm service instead (GET <url>/metrics)"
    )
    metrics_cmd.add_argument(
        "--prometheus", action="store_true",
        help="Prometheus text instead of JSON",
    )
    metrics_cmd.set_defaults(func=_metrics)

    catalog_cmd = sub.add_parser(
        "catalog", help="list cataloged metric and span names"
    )
    catalog_cmd.add_argument("--json", action="store_true")
    catalog_cmd.set_defaults(func=_catalog)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
