#!/usr/bin/env python3
"""Farm demo: a 32-variant sweep drained by a 4-worker local farm.

The paper's pitch is exploration throughput — many MPSoC/thermal
variants per afternoon, not one.  :mod:`repro.farm` turns one machine
(or several sharing a filesystem) into a small run-farm: a persistent
job queue, N worker processes, and a shared concurrency-safe
:class:`~repro.trace.store.TraceStore`.  Structure-sharing sweeps
dedup automatically: scenarios that differ only in thermal-side knobs
share one boundary-stream digest, so the fleet emulates each unique
digest exactly **once** and replays everything else from the shared
store — the queue's digest leases guarantee it even across concurrent
workers.

This demo expands 2 emulation-side x 16 thermal-side variants (= 32
jobs, 2 unique digests), drains them through ``LocalFarm(workers=4)``
and prints the per-job provenance: who ran what, and how few live
emulations 32 results actually cost.

Run:  python examples/farm_demo.py [--workers 4] [--dir DIR]
"""

import argparse
import tempfile
import time
import urllib.request

from repro.farm.local import LocalFarm
from repro.farm.service import FarmService
from repro.scenario.presets import PRESETS
from repro.scenario.sweep import Variant, sweep
from repro.util.records import Table


def thirty_two_variants():
    """2 run bounds x (4 die resolutions x 2 spreaders x 2 backends)."""
    members = []
    for seconds in (1.0, 2.0):  # emulation-side: 2 unique digests
        base = PRESETS.get("matrix_tm_unmanaged")()
        base.max_emulated_seconds = seconds
        members.extend(sweep(
            base,
            {
                "config.die_resolution": [
                    Variant(f"{n}x{n}", [n, n]) for n in (4, 6, 8, 10)
                ],
                "config.spreader_resolution": [
                    Variant(f"sp{n}", [n, n]) for n in (2, 3)
                ],
                "config.solver_backend": ["sparse_be", "cached_lu"],
            },
            name=f"farm_demo_{seconds:g}s",
        ))
    return members


HEADLINE_METRICS = (
    "repro_farm_jobs",
    "repro_farm_emulated_jobs",
    "repro_farm_replayed_jobs",
    "repro_farm_store_hit_ratio",
    "repro_farm_claims_total",
)


def scrape_metrics(url):
    """GET /metrics from the demo's own service (Prometheus text)."""
    with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
        return response.read().decode("utf-8")


def run_demo(base_dir, workers):
    members = thirty_two_variants()
    print(f"Submitting {len(members)} scenario variants to a "
          f"{workers}-worker farm under {base_dir} ...")
    start = time.perf_counter()
    with LocalFarm(base_dir, workers=workers) as farm:
        # Serve the queue over HTTP alongside the workers so the demo
        # can end with a real Prometheus scrape of its own farm.
        with FarmService(farm.queue) as service:
            jobs = farm.run(members, timeout=600.0)
            metrics_text = scrape_metrics(service.url)
    wall = time.perf_counter() - start

    emulated = [j for j in jobs if j.provenance["mode"] == "emulated"]
    replayed = [j for j in jobs if j.provenance["mode"] == "replayed"]
    digests = {j.trace_digest for j in jobs}

    table = Table(
        ["job", "digest", "worker", "mode", "peak T (K)"],
        title=f"{len(jobs)} jobs through {workers} workers "
        f"(shared store: {len(digests)} unique boundary streams)",
    )
    for job in jobs[:8]:
        table.add_row(
            job.name, job.trace_digest[:10], job.provenance["worker"],
            job.provenance["mode"],
            f"{job.result['report']['peak_temperature_k']:.2f}",
        )
    if len(jobs) > 8:
        table.add_row("...", "...", "...", "...", "...")
    print(table)

    by_worker = {}
    for job in jobs:
        by_worker[job.provenance["worker"]] = (
            by_worker.get(job.provenance["worker"], 0) + 1
        )
    share = ", ".join(f"{w}: {n}" for w, n in sorted(by_worker.items()))
    print(f"\nWork share               : {share}")
    print(f"Live emulations          : {len(emulated)} "
          f"(= {len(digests)} unique digests — the farm's dedup floor)")
    print(f"Replays from shared store: {len(replayed)}")
    print(f"Wall time                : {wall:.2f} s for {len(jobs)} results")

    headline = [
        line for line in metrics_text.splitlines()
        if line.split("{")[0].split(" ")[0] in HEADLINE_METRICS
        and not line.startswith("#")
    ]
    print("\nGET /metrics (farm service, headline series):")
    for line in headline:
        print(f"  {line}")

    failed = [j for j in jobs if j.state != "done"]
    if failed:
        print(f"FAILED jobs: {[j.name for j in failed]}")
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--dir", default=None,
        help="farm directory (queue + store); default: a temp dir. "
        "Point several invocations at the same dir to see warm-store "
        "resubmission answer instantly.",
    )
    args = parser.parse_args(argv)
    if args.dir:
        return run_demo(args.dir, args.workers)
    with tempfile.TemporaryDirectory(prefix="repro-farm-demo-") as tmp:
        return run_demo(tmp, args.workers)


if __name__ == "__main__":
    raise SystemExit(main())
