"""Plain-text table/figure renderers for the benchmark harness.

Every bench prints the rows/series the corresponding paper table or
figure reports, via these helpers, so ``pytest benchmarks/ -s`` doubles
as the experiment log.
"""

from __future__ import annotations

__all__ = ["render_table", "render_series", "render_kv"]


def render_table(rows: list[dict], columns: list[str] | None = None,
                 title: str | None = None, float_fmt: str = "{:.4g}") -> str:
    """Fixed-width text table from a list of row dicts."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns = columns or list(rows[0].keys())

    def fmt(value):
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    cells = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(name: str, xs, ys, x_label: str = "x",
                  y_label: str = "y", float_fmt: str = "{:.5g}") -> str:
    """A figure series as aligned (x, y) pairs."""
    lines = [f"{name}  [{x_label} -> {y_label}]"]
    for x, y in zip(xs, ys):
        fx = float_fmt.format(x) if isinstance(x, float) else str(x)
        fy = float_fmt.format(y) if isinstance(y, float) else str(y)
        lines.append(f"  {fx:>12}  {fy}")
    return "\n".join(lines)


def render_kv(title: str, pairs: dict, float_fmt: str = "{:.5g}") -> str:
    lines = [title]
    for k, v in pairs.items():
        fv = float_fmt.format(v) if isinstance(v, float) else str(v)
        lines.append(f"  {k}: {fv}")
    return "\n".join(lines)
