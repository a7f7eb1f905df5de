"""Plain-text and markdown table rendering.

The experiment harness produces its reports as text (there is no plotting
dependency available offline), so tables are the primary output format: the
CLI prints text tables, and each result directory carries the markdown
variant (``result.md``).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError

__all__ = ["format_text_table", "format_markdown_table"]


def _normalise(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[List[str]]:
    if not headers:
        raise ConfigurationError("a table needs at least one column")
    width = len(headers)
    rendered: List[List[str]] = []
    for row in rows:
        cells = ["" if cell is None else str(cell) for cell in row]
        if len(cells) != width:
            raise ConfigurationError(
                f"row {cells!r} has {len(cells)} cells, expected {width}"
            )
        rendered.append(cells)
    return rendered


def format_text_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table (for terminal output)."""
    rendered = _normalise(headers, rows)
    columns = [list(column) for column in zip(*([list(headers)] + rendered))] if rendered else [[h] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured markdown table (for ``result.md``)."""
    rendered = _normalise(headers, rows)
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rendered:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
