"""Plain-text table rendering: the one table helper.

Every report (experiment figures, the load report, the trace report)
renders rows of plain dicts as aligned fixed-width tables through
:func:`format_table`.  A leaf module, so any layer can render a table
without importing the experiments package.
"""

from __future__ import annotations

from typing import Sequence


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render rows as an aligned text table.

    Args:
        rows: list of dicts with consistent keys.
        columns: column order (defaults to the first row's key order).
        title: optional heading line.
    """
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[_cell(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.rjust(w) if _numericish(v) else v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _numericish(text: str) -> bool:
    stripped = text.replace(",", "").replace("%", "").replace("-", "").replace(".", "")
    return stripped.isdigit() if stripped else False
