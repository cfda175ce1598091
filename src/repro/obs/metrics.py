"""Dependency-free metrics primitives: counters, gauges, histograms.

The paper's system *is* a monitoring loop — hardware sensors streamed to
a software layer every sampling window — and :mod:`repro.obs` gives the
reproduction the same self-observation: every layer (solver backends,
the trace store, the runner, the farm) records what it did into a
:class:`MetricsRegistry`, and exporters render one snapshot either as
Prometheus text exposition (the farm service's ``GET /metrics``) or as
JSON (``python -m repro obs metrics``).

Design points, all deliberately boring:

* **Process-wide default registry** (:data:`REGISTRY`) plus injectable
  instances — library code records into the default registry; tests and
  embedders pass their own.
* **Labels** — a family (``repro_runner_scenarios_total``) fans out into
  series per label-value combination (``{mode="replayed"}``).  Series
  creation is capped (``max_series_per_family``) so an unbounded label
  value (a job id, say) cannot grow the registry without bound.
* **Stdlib only** — no client library; the text exposition follows the
  Prometheus format (``# HELP`` / ``# TYPE`` headers, escaped label
  values, cumulative ``_bucket{le=...}`` histograms).

Recording is cheap (a dict lookup and a float add) and always on for
the cold paths that use it; the *hot* per-window paths are instrumented
through :mod:`repro.obs.tracing` instead, which is a no-op until a
tracer is installed — see ``docs/observability.md`` for the overhead
budget and ``tests/obs/test_hot_path_overhead.py`` for the gate.
"""

import json
import math
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: wall-clock seconds from sub-millisecond
#: solver steps up to minute-scale farm jobs.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


def escape_help(text):
    """Escape a HELP line per the Prometheus text format."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def escape_label_value(value):
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _format_value(value):
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _labels_text(names, values, extra=()):
    pairs = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in list(zip(names, values)) + list(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


# -- series ----------------------------------------------------------------


class CounterSeries:
    """One monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise MetricError(f"counters only go up, got inc({amount})")
        self.value += amount


class GaugeSeries:
    """One settable value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount


class HistogramSeries:
    """Cumulative-bucket histogram of observed values."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self):
        """``[(upper_bound, cumulative_count)]`` including ``+Inf``."""
        total, rows = 0, []
        for bound, count in zip(
            list(self.buckets) + [math.inf], self.counts
        ):
            total += count
            rows.append((bound, total))
        return rows


# -- families --------------------------------------------------------------


class MetricFamily:
    """One named metric, fanned out into series by label values."""

    kind = None

    def __init__(self, name, help_text, label_names, max_series,
                 make_series):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self.max_series = max_series
        self._make_series = make_series
        self._series = {}
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The series for one label-value combination (created on first
        use, capped at ``max_series`` distinct combinations)."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    if len(self._series) >= self.max_series:
                        raise MetricError(
                            f"metric {self.name!r} exceeded its series "
                            f"cap ({self.max_series}); a label is "
                            f"carrying unbounded values"
                        )
                    series = self._make_series()
                    self._series[key] = series
        return series

    @property
    def _default(self):
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled "
                f"{list(self.label_names)}; address a series via "
                f".labels(...)"
            )
        return self.labels()

    def series(self):
        """``[(label_values, series)]`` sorted by label values."""
        return sorted(self._series.items())

    def clear(self):
        with self._lock:
            self._series.clear()


class Counter(MetricFamily):
    kind = "counter"

    def __init__(self, name, help_text, label_names, max_series):
        super().__init__(
            name, help_text, label_names, max_series, CounterSeries
        )

    def inc(self, amount=1.0):
        self._default.inc(amount)

    @property
    def value(self):
        return sum(s.value for s in self._series.values())


class Gauge(MetricFamily):
    kind = "gauge"

    def __init__(self, name, help_text, label_names, max_series):
        super().__init__(
            name, help_text, label_names, max_series, GaugeSeries
        )

    def set(self, value):
        self._default.set(value)

    def inc(self, amount=1.0):
        self._default.inc(amount)

    def dec(self, amount=1.0):
        self._default.dec(amount)

    @property
    def value(self):
        return self._default.value


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(self, name, help_text, label_names, max_series,
                 buckets=None):
        buckets = tuple(buckets if buckets is not None else DEFAULT_BUCKETS)
        if not buckets or any(
            b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])
        ):
            raise MetricError(
                f"histogram {name!r} buckets must be strictly "
                f"increasing and non-empty, got {buckets}"
            )
        self.buckets = buckets
        super().__init__(
            name, help_text, label_names, max_series,
            lambda: HistogramSeries(buckets),
        )

    def observe(self, value):
        self._default.observe(value)


# -- registry --------------------------------------------------------------


class MetricsRegistry:
    """A named set of metric families with Prometheus/JSON exporters.

    Families are created idempotently: asking twice for the same name
    returns the same family, asking with a conflicting kind or label
    set raises.  ``max_series_per_family`` caps label cardinality.
    """

    def __init__(self, max_series_per_family=256):
        self.max_series_per_family = max_series_per_family
        self._families = {}
        self._lock = threading.Lock()

    # -- declaration -------------------------------------------------------
    def _family(self, cls, name, help_text, labels, **kwargs):
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(
                        name, help_text, tuple(labels),
                        self.max_series_per_family, **kwargs
                    )
                    self._families[name] = family
                    return family
        if family.kind != cls.kind:
            raise MetricError(
                f"metric {name!r} is a {family.kind}, not a {cls.kind}"
            )
        if family.label_names != tuple(labels):
            raise MetricError(
                f"metric {name!r} is labeled {list(family.label_names)}, "
                f"not {list(labels)}"
            )
        return family

    def counter(self, name, help_text="", labels=()):
        return self._family(Counter, name, help_text, labels)

    def gauge(self, name, help_text="", labels=()):
        return self._family(Gauge, name, help_text, labels)

    def histogram(self, name, help_text="", labels=(), buckets=None):
        return self._family(
            Histogram, name, help_text, labels, buckets=buckets
        )

    # -- inspection --------------------------------------------------------
    def families(self):
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name):
        return self._families.get(name)

    def reset(self):
        """Zero every series (families and their declarations stay)."""
        for family in self._families.values():
            family.clear()

    # -- exporters ---------------------------------------------------------
    def render_prometheus(self):
        """The registry as Prometheus text exposition format."""
        lines = []
        for family in self.families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, series in family.series():
                if family.kind == "histogram":
                    for bound, count in series.cumulative():
                        le = "+Inf" if bound == math.inf else f"{bound:g}"
                        labels = _labels_text(
                            family.label_names, values, [("le", le)]
                        )
                        lines.append(
                            f"{family.name}_bucket{labels} {count}"
                        )
                    labels = _labels_text(family.label_names, values)
                    lines.append(
                        f"{family.name}_sum{labels} "
                        f"{_format_value(series.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {series.count}")
                else:
                    labels = _labels_text(family.label_names, values)
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_value(series.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self):
        """The registry as a JSON-compatible snapshot dict."""
        out = {}
        for family in self.families():
            rows = []
            for values, series in family.series():
                row = {"labels": dict(zip(family.label_names, values))}
                if family.kind == "histogram":
                    row["sum"] = series.sum
                    row["count"] = series.count
                    row["buckets"] = [
                        ["+Inf" if b == math.inf else b, c]
                        for b, c in series.cumulative()
                    ]
                else:
                    row["value"] = series.value
                rows.append(row)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": rows,
            }
        return out

    def dump_json(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


#: The process-wide default registry library code records into.
REGISTRY = MetricsRegistry()


def default_registry():
    return REGISTRY
