"""Status panel for a serving load run (``--watch``).

:func:`render_panel` is a pure function of a run's records at one
simulated instant: it folds the same :class:`~repro.obs.window.Frame`
the SLO monitor reads, so terminal and ``/slo`` cannot disagree, and two
runs of a seed print the same panels byte for byte.  The CLI calls it
from the harness thread, through :meth:`~repro.obs.window.RecordLog.every`,
each time the simulated clock crosses a ``--watch`` tick.  Rates are
per simulated hour; wall-clock plan latencies stay in the report.
"""

from __future__ import annotations

from repro.obs.window import DEFAULT_WINDOWS
from repro.utils.units import HOURS


def render_panel(log, t: float, monitor=None, window_s: float = DEFAULT_WINDOWS[0]) -> str:
    """One status frame: the last *window_s* of *log* before *t*."""
    frame = log.frame()
    per_hour = HOURS / window_s
    planned = frame.count(t, window_s, "job", "planned") * per_hour
    runs = frame.count(t, window_s, "run") * per_hour
    miss = frame.ratio(t, window_s, "run", "missed")
    spend = frame.total(t, window_s, "run") * per_hour
    lines = [
        f"-- load run · t+{(t - log.origin) / HOURS:.2f} h · last {window_s:g} s --",
        f"  planned {planned:8.2f}/h   runs {runs:8.2f}/h",
        f"  miss rate {100 * miss:6.2f}%   spend {spend:10.2f} $/h",
    ]
    if monitor is not None:
        firing = monitor.as_dict()["firing"]
        lines.append(
            "  slo: " + (", ".join(firing) if firing else "all objectives within budget")
        )
    return "\n".join(lines)
