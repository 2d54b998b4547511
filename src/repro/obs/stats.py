"""Text dashboard rendering for ``repro stats``.

Turns an observability snapshot — ``{"metrics": ..., "traces": ...}``
as produced by :func:`repro.obs.snapshot` or found under the ``obs``
key of a ``RegionServer.snapshot()`` — into a fixed-width terminal
dashboard.  Pure formatting: no imports from the serving stack, so the
CLI can render a JSON file from a dead process just as well as a live
registry.
"""

from __future__ import annotations

__all__ = ["render_dashboard"]

_RULE = "─" * 72


def _fmt(value, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        if value != value:                       # NaN
            return "-".rjust(width)
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}".rjust(width)
        return f"{value:.4g}".rjust(width)
    return str(value).rjust(width)


def _labels(sample: dict) -> str:
    labels = sample.get("labels") or {}
    if not labels:
        return "(total)"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _render_scalars(lines: list, title: str, samples: list) -> None:
    lines.append(f"{title}")
    for s in samples:
        lines.append(f"  {s['name']:<32} {_labels(s):<28} "
                     f"{_fmt(s.get('value'), 12)}")


def _render_histograms(lines: list, samples: list) -> None:
    lines.append("histograms")
    header = (f"  {'name':<28} {'labels':<24} {'count':>7} {'mean':>10} "
              f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}")
    lines.append(header)
    for s in samples:
        count = s.get("count", 0)
        mean = (s["sum"] / count) if count else None
        lines.append(
            f"  {s['name']:<28} {_labels(s):<24} {count:>7} "
            f"{_fmt(mean)} {_fmt(s.get('p50'))} {_fmt(s.get('p95'))} "
            f"{_fmt(s.get('p99'))} {_fmt(s.get('max'))}")


def _render_span(lines: list, span: dict, depth: int) -> None:
    indent = "  " * depth
    attrs = span.get("attrs")
    suffix = ""
    if attrs:
        suffix = "  " + ",".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    lines.append(f"    {indent}{span['name']:<{max(4, 30 - 2 * depth)}} "
                 f"{_fmt(span.get('seconds'), 10)}s{suffix}")
    for child in span.get("children", []):
        _render_span(lines, child, depth + 1)


def render_dashboard(snapshot: dict, max_traces: int = 5) -> str:
    """Render one observability snapshot as a text dashboard."""
    lines = [_RULE, "repro stats", _RULE]

    by_name = (snapshot.get("metrics") or {}).get("metrics", {})
    counters, gauges, histograms = [], [], []
    for name in sorted(by_name):
        for sample in by_name[name]:
            kind = sample.get("type")
            if kind == "counter":
                counters.append(sample)
            elif kind == "gauge":
                gauges.append(sample)
            elif kind == "histogram":
                histograms.append(sample)
    if counters:
        _render_scalars(lines, "counters", counters)
    if gauges:
        _render_scalars(lines, "gauges", gauges)
    if histograms:
        _render_histograms(lines, histograms)
    if not (counters or gauges or histograms):
        lines.append("no metrics recorded")

    for name, steps in sorted((snapshot.get("plans") or {}).items()):
        lines.append(_RULE)
        lines.append(f"plan {name}")
        for label, seconds in steps:
            lines.append(f"  {label:44s} {_fmt(seconds, 10)}s")

    traces = snapshot.get("traces") or {}
    entries = traces.get("traces", [])
    lines.append(_RULE)
    lines.append(f"traces  seen={traces.get('seen', 0)} "
                 f"buffered={traces.get('buffered', len(entries))} "
                 f"capacity={traces.get('capacity', '-')}")
    for entry in entries[-max_traces:]:
        title = entry.get("name") or \
            f"{entry.get('region', '?')} [{entry.get('path', '?')}]"
        lines.append(f"  #{entry.get('trace_id', '?')} {entry['kind']} "
                     f"{title} {_fmt(entry.get('seconds'), 10)}s")
        root = entry.get("root")
        if root:
            for child in root.get("children", []):
                _render_span(lines, child, 0)
    if not entries:
        lines.append("  (empty ring)")
    lines.append(_RULE)
    return "\n".join(lines) + "\n"
