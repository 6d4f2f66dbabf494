"""Human-readable rendering of a trace: per-run timeline + histograms.

Backs ``python -m repro.experiments report --trace run.jsonl``: groups a
JSONL event stream by trace (one trace per execution), prints each
run's timeline in time order, then summarises span durations per name
(count / total / mean / p50 / max) across the whole stream.

Tables render through the leaf :func:`~repro.utils.table.format_table`,
and p50 uses the one quantile rule, :func:`~repro.obs.window.percentile`.
"""

from __future__ import annotations

from repro.obs.trace import SpanRecord
from repro.obs.window import percentile
from repro.utils.table import format_table


def group_by_trace(records) -> dict[int, list[SpanRecord]]:
    """Trace id -> its records, each list sorted by start time."""
    traces: dict[int, list[SpanRecord]] = {}
    for record in records:
        traces.setdefault(record.trace_id, []).append(record)
    for trace in traces.values():
        trace.sort(key=lambda r: (r.t0, r.span_id))
    return traces


def _trace_label(trace: list[SpanRecord]) -> str:
    for record in trace:
        if record.parent_id is None and record.kind == "span":
            job = record.attr("job_id")
            tenant = record.attr("tenant")
            parts = [p for p in (tenant, job) if p and p != "-"]
            if parts:
                return " ".join(str(p) for p in parts)
    return "(unlabeled)"


def render_timeline(trace_id: int, trace: list[SpanRecord]) -> str:
    """One run's records as a time-ordered table."""
    rows = []
    for record in trace:
        attrs = ", ".join(
            f"{k}={v}" for k, v in record.attrs
            if k not in ("job_id", "tenant", "strategy", "clock")
        )
        rows.append(
            {
                "t0": record.t0,
                "dur_s": record.duration if record.kind == "span" else "-",
                "kind": record.kind,
                "name": record.name,
                "attrs": attrs,
            }
        )
    return format_table(
        rows, title=f"trace {trace_id} — {_trace_label(trace)} ({len(trace)} records)"
    )


def render_span_summary(records) -> str:
    """Span-duration histogram summary across every trace."""
    durations: dict[str, list[float]] = {}
    for record in records:
        if record.kind == "span":
            durations.setdefault(record.name, []).append(record.duration)
    rows = []
    for name in sorted(durations):
        values = durations[name]
        rows.append(
            {
                "span": name,
                "count": len(values),
                "total_s": sum(values),
                "mean_s": sum(values) / len(values),
                "p50_s": percentile(values, 50),
                "max_s": max(values),
            }
        )
    if not rows:
        return "span durations: (no spans)"
    return format_table(rows, title="span durations:")


def render_trace_report(records, max_traces: int | None = None) -> str:
    """Full report: per-trace timelines, then the span-duration summary.

    Args:
        records: :class:`SpanRecord` stream (e.g. from
            :func:`repro.obs.export.read_jsonl`).
        max_traces: cap on the number of per-trace timelines printed
            (None = all); the summary always covers every record.
    """
    records = list(records)
    if not records:
        return "(empty trace)"
    traces = group_by_trace(records)
    parts = []
    shown = 0
    for trace_id in sorted(traces):
        if max_traces is not None and shown >= max_traces:
            parts.append(f"... {len(traces) - shown} more traces elided ...")
            break
        parts.append(render_timeline(trace_id, traces[trace_id]))
        shown += 1
    parts.append(render_span_summary(records))
    return "\n\n".join(parts)
