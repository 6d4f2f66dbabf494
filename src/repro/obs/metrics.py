"""Named counters, gauges and bucketed histograms with labeled series.

A :class:`MetricsRegistry` owns every metric by name; each metric holds
one series per label set (``counter.inc(1, tenant="a", config="spot4")``
and ``tenant="b"`` are independent series).  The renderer speaks the
Prometheus text exposition format, so the output scrapes directly and
round-trips through :func:`repro.obs.export.parse_prometheus`.

Only the load harness's layers (harness, ledger, SLO monitor, planner
pool) write metrics; the engine, checkpoints, datastore and planning
service record none.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Default histogram buckets (seconds-oriented: µs planning decisions
#: up to multi-hour simulated phases), plus the implicit +Inf bucket.
DEFAULT_BUCKETS = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 21600.0,
)

_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v.translate(_LABEL_ESCAPES)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Shared series bookkeeping for one named metric."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict = {}

    def series(self) -> dict:
        """Label-key -> value snapshot (value shape is per metric type)."""
        with self._lock:
            return dict(self._series)


class Counter(Metric):
    """Monotonically increasing sum per label set."""

    type_name = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add *value* (must be >= 0) to the labeled series."""
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current total of the labeled series (0.0 when unseen)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            return [
                f"{self.name}{_render_labels(key)} {_format_value(v)}"
                for key, v in sorted(self._series.items())
            ]


class Gauge(Metric):
    """Last-written value per label set."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        """Overwrite the labeled series with *value*."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        """Adjust the labeled series by *value* (may be negative)."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of the labeled series (0.0 when unseen)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            return [
                f"{self.name}{_render_labels(key)} {_format_value(v)}"
                for key, v in sorted(self._series.items())
            ]


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets  # cumulative per le-bound
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Bucketed distribution per label set (Prometheus semantics).

    Bucket counts are cumulative: the count for bound ``le`` includes
    every observation <= le, and the implicit ``+Inf`` bucket equals the
    total observation count.
    """

    type_name = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the labeled series."""
        key = _label_key(labels)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds))
            for i in range(index, len(self.bounds)):
                series.counts[i] += 1
            series.sum += value
            series.count += 1

    def snapshot(self, **labels) -> dict:
        """``{"buckets": {le: n}, "sum": s, "count": n}`` for one series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return {"buckets": {b: 0 for b in self.bounds}, "sum": 0.0, "count": 0}
            return {
                "buckets": dict(zip(self.bounds, series.counts)),
                "sum": series.sum,
                "count": series.count,
            }

    def render(self) -> list[str]:
        lines = []
        with self._lock:
            for key, series in sorted(self._series.items()):
                for bound, count in zip(self.bounds, series.counts):
                    le = _render_labels(key, f'le="{_format_value(bound)}"')
                    lines.append(f"{self.name}_bucket{le} {count}")
                inf = _render_labels(key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{inf} {series.count}")
                lines.append(
                    f"{self.name}_sum{_render_labels(key)} "
                    f"{_format_value(series.sum)}"
                )
                lines.append(f"{self.name}_count{_render_labels(key)} {series.count}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name returns the existing metric; requesting it as a
    different type raises, so two layers cannot silently split a series.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.type_name}, not {cls.type_name}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        """The named metric, or None."""
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (names and series)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        escapes = str.maketrans({"\\": r"\\", "\n": r"\n"})
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {metric.help.translate(escapes)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            if isinstance(metric, Histogram):
                # The _sum/_count series are cumulative like counters;
                # typing them explicitly keeps scrapers that treat each
                # sample family independently in agreement with
                # parse_prometheus.
                lines.append(f"# TYPE {metric.name}_sum counter")
                lines.append(f"# TYPE {metric.name}_count counter")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")
