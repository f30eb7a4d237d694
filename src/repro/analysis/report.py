"""Rendering analysis results for humans and machines.

Every report object in the library exposes ``summary()`` / ``rows()`` /
``as_dict()`` methods with plain Python values; this module turns them
into aligned text tables (for the examples and the CLI output) and
JSON documents (for EXPERIMENTS.md bookkeeping).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]


def format_table(
    rows: Sequence[Tuple[str, str]],
    title: str = "",
    label_header: str = "metric",
    value_header: str = "value",
) -> str:
    """Render (label, value) rows as an aligned two-column text table."""
    label_width = max(
        [len(label_header)] + [len(label) for label, _ in rows]
    ) if rows else len(label_header)
    value_width = max(
        [len(value_header)] + [len(value) for _, value in rows]
    ) if rows else len(value_header)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), label_width + value_width + 3))
    lines.append(f"{label_header.ljust(label_width)} | {value_header}")
    lines.append(f"{'-' * label_width}-+-{'-' * value_width}")
    for label, value in rows:
        lines.append(f"{label.ljust(label_width)} | {value}")
    return "\n".join(lines)


def format_summary(
    summary: Mapping[str, Number],
    title: str = "",
    percentage_keys: Iterable[str] = (),
) -> str:
    """Render a flat numeric summary dictionary as a text table.

    Keys listed in ``percentage_keys`` (or ending in ``_fraction`` /
    ``_coverage`` / ``_share`` / ``_reduction``) are displayed as
    percentages.
    """
    percentage = set(percentage_keys)
    rows: List[Tuple[str, str]] = []
    for key, value in summary.items():
        as_percentage = (
            key in percentage
            or key.endswith(("_fraction", "_coverage", "_share", "_reduction", "_rate"))
            or key.startswith(("share_", "fraction_"))
        )
        if as_percentage:
            rows.append((key, f"{float(value):.1%}"))
        elif isinstance(value, float) and not value.is_integer():
            rows.append((key, f"{value:.3f}"))
        else:
            rows.append((key, f"{int(value)}"))
    return format_table(rows, title=title)


def format_series(
    x_label: str,
    series: Mapping[str, Sequence[Number]],
    title: str = "",
) -> str:
    """Render aligned columns for one or more series sharing an x axis.

    Used by the Figure-2 example to print the correction sweep
    the way the paper plots it (one row per number of corrected links).
    """
    lengths = {len(values) for values in series.values()}
    if len(lengths) > 1:
        raise ValueError("all series must have the same length")
    length = lengths.pop() if lengths else 0
    headers = [x_label] + list(series)
    widths = [max(len(h), 12) for h in headers]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 3 * (len(widths) - 1)))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for index in range(length):
        cells = [str(index).ljust(widths[0])]
        for (name, values), width in zip(series.items(), widths[1:]):
            value = values[index]
            if isinstance(value, float):
                cells.append(f"{value:.3f}".ljust(width))
            else:
                cells.append(str(value).ljust(width))
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def to_json(data: Mapping, indent: int = 2) -> str:
    """Serialize a (possibly nested) report mapping to JSON text."""
    return json.dumps(data, indent=indent, sort_keys=True, default=_json_default)


def write_json_report(
    payload: Mapping, path, schema_version: Optional[int] = None
) -> None:
    """Write a JSON report with the repository's one stable
    serialization: sorted keys, a ``schema_version`` field, a trailing
    newline.  Every ``--json`` writer (``section3``, ``figure2``,
    ``repro sweep``) goes through here so the format cannot drift
    between reports.

    ``schema_version`` is injected when the payload does not already
    carry one (sweep reports embed their own).
    """
    if schema_version is not None and "schema_version" not in payload:
        payload = {"schema_version": schema_version, **payload}
    Path(path).write_text(to_json(payload) + "\n", encoding="utf-8")


def _json_default(value):
    """Fallback serializer: enums and sets become strings / lists."""
    if hasattr(value, "value"):
        return str(value)
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    return str(value)
