"""Prometheus text-format parser: the validation counterpart of
:meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus`, used by the
``ops`` smoke row (:mod:`tools.smoke`) and the tests to check the
exposition the registry renders and to read series values back from it.
"""

from __future__ import annotations

import math


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    *labels* is a sorted tuple of ``(key, value)`` string pairs.  The
    parser understands exactly what
    :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` emits
    (HELP/TYPE comments, labeled samples, ``+Inf``), raising
    ``ValueError`` on malformed lines — which is what makes it useful as
    an exporter validator.
    """
    samples: dict = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                types[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        name, labels, value = _parse_sample(line, lineno)
        key = (name, labels)
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {line!r}")
        samples[key] = value
    for name, _labels in samples:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        if base not in types:
            raise ValueError(f"sample {name!r} has no # TYPE line")
    return samples


def sample(registry, name: str, **labels) -> float:
    """One series of *registry*'s rendered exposition, read back through
    :func:`parse_prometheus`; 0.0 when the series is absent."""
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return parse_prometheus(registry.to_prometheus()).get(key, 0.0)


def _parse_sample(line: str, lineno: int) -> tuple[str, tuple, float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        if "}" not in rest:
            raise ValueError(f"line {lineno}: unterminated label set {line!r}")
        label_text, value_text = rest.rsplit("}", 1)
        labels = []
        for part in _split_labels(label_text):
            if "=" not in part:
                raise ValueError(f"line {lineno}: malformed label {part!r}")
            key, raw = part.split("=", 1)
            if len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
                raise ValueError(f"line {lineno}: unquoted label value {part!r}")
            labels.append((key.strip(), _unescape_label(raw[1:-1])))
        labels = tuple(sorted(labels))
    else:
        name, _, value_text = line.partition(" ")
        labels = ()
    name = name.strip()
    if not name or not name.replace("_", "a").replace(":", "a").isalnum():
        raise ValueError(f"line {lineno}: malformed metric name {name!r}")
    value_text = value_text.strip()
    try:
        value = math.inf if value_text == "+Inf" else float(value_text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: malformed value {value_text!r}") from exc
    return name, labels, value


def _unescape_label(raw: str) -> str:
    """Decode a quoted label value, consuming escapes left to right.

    Sequential ``str.replace`` passes mis-decode values whose escaped
    backslash precedes an ``n`` (``\\\\n`` — a literal backslash then the
    letter n — must not become backslash + newline).
    """
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _split_labels(text: str):
    """Split ``k="v",k2="v2"`` on commas outside quotes."""
    parts, current, in_quotes, escaped = [], [], False, False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]
