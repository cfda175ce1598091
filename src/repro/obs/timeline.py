"""Fold a span event log into a per-run, per-phase timeline summary.

:class:`RunTimeline` is the bridge between the raw JSONL span log and
everything that consumes per-phase timing: ``RunReport.extras["timing"]``
(:meth:`RunTimeline.phases`), the ``python -m repro obs timeline`` CLI
(:meth:`render`), and the ``obs_overview`` report artifact
(:meth:`phase_shares`).

The :meth:`digest` covers only the *structure* of the run — sorted
``(name, count)`` pairs — never the timings, so two runs of the same
scenario produce the same digest even though their wall clocks differ.
That makes the summary safe to use in content-addressed contexts (the
JSONL round-trip test relies on it).
"""

import hashlib
import json

from repro.obs import tracing

#: Spans whose names start with this prefix are run phases; the suffix
#: is the phase key used in ``extras["timing"]``.
PHASE_PREFIX = "window."

#: Canonical phase ordering for rendering and timing dicts.
PHASE_ORDER = ("emulate", "power", "dispatch", "solve", "other")


class RunTimeline:
    """Aggregated per-name span statistics for one run."""

    def __init__(self, events):
        self.events = list(events)
        self.by_name = {}
        for event in self.events:
            stats = self.by_name.setdefault(
                event["name"],
                {"count": 0, "wall_s": 0.0, "cpu_s": 0.0},
            )
            stats["count"] += 1
            stats["wall_s"] += event.get("wall_s", 0.0)
            stats["cpu_s"] += event.get("cpu_s", 0.0)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_jsonl(cls, source):
        """Build from a JSONL span log (path, file-like, or text)."""
        return cls(tracing.read_jsonl(source))

    # -- views -------------------------------------------------------------
    def phases(self):
        """``{phase: wall_s}`` for the ``window.*`` spans, in order."""
        out = {}
        for phase in PHASE_ORDER:
            stats = self.by_name.get(PHASE_PREFIX + phase)
            if stats is not None:
                out[phase] = stats["wall_s"]
        for name, stats in sorted(self.by_name.items()):
            phase = name[len(PHASE_PREFIX):]
            if name.startswith(PHASE_PREFIX) and phase not in out:
                out[phase] = stats["wall_s"]
        return out

    def total_wall_s(self):
        """Total wall time across phases (falls back to the ``run``
        span when no per-phase spans were recorded)."""
        phases = self.phases()
        if phases:
            return sum(phases.values())
        run = self.by_name.get("run")
        return run["wall_s"] if run else 0.0

    def phase_shares(self):
        """``{phase: fraction_of_total}``; empty when total is zero."""
        phases = self.phases()
        total = sum(phases.values())
        if total <= 0:
            return {}
        return {phase: wall / total for phase, wall in phases.items()}

    def digest(self):
        """SHA-256 over sorted ``(name, count)`` pairs.

        Timing-free on purpose: the digest identifies the *structure*
        of a run, which is deterministic, not its wall clocks, which
        are not.
        """
        payload = json.dumps(
            sorted(
                (name, stats["count"])
                for name, stats in self.by_name.items()
            ),
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self):
        """Compact JSON-safe summary (stamped into ``extras``)."""
        return {
            "digest": self.digest(),
            "events": len(self.events),
            "spans": {
                name: {
                    "count": stats["count"],
                    "wall_s": round(stats["wall_s"], 9),
                    "cpu_s": round(stats["cpu_s"], 9),
                }
                for name, stats in sorted(self.by_name.items())
            },
        }

    def render(self, width=40):
        """ASCII per-phase breakdown for the ``obs timeline`` CLI."""
        phases = self.phases()
        total = sum(phases.values())
        lines = ["phase      share   wall_s     count"]
        for phase, wall in phases.items():
            share = wall / total if total > 0 else 0.0
            bar = "#" * max(1, round(share * width)) if wall > 0 else ""
            count = self.by_name[PHASE_PREFIX + phase]["count"]
            lines.append(
                f"{phase:10s} {share:6.1%} {wall:9.4f} {count:9d} {bar}"
            )
        lines.append(f"{'total':10s} {'':6s} {total:9.4f}")
        extra = [
            name for name in sorted(self.by_name)
            if not name.startswith(PHASE_PREFIX)
        ]
        if extra:
            lines.append("")
            lines.append("other spans: " + ", ".join(
                f"{name} x{self.by_name[name]['count']}" for name in extra
            ))
        return "\n".join(lines)
