"""Invocation tracing: trace ids, span trees, bounded ring buffer.

Every region invocation gets a **trace id** and a tree of **spans**
(to_tensor → infer/accurate → shadow → policy decision → breaker
verdict).  Three recording styles, matched to cost:

* **Hot path** — invocation traces are not recorded at all: the
  :class:`~repro.runtime.events.EventLog` ring *is* the trace store.
  Each log registers as a **trace source** and the tracer pulls
  compact ``(region, path, seconds, phases, notes)`` entries from it
  at *read* time, materializing the span tree lazily from the phase
  timings and notes the invocation already carried.  Zero
  per-invocation tracing cost — one measurement, two views.
* **Warm path** — :meth:`Tracer.record_span` is a post-hoc span for
  code that timed itself (batch flushes): one allocation and a deque
  append, no contextvars round trip.
* **Cold path** — :meth:`Tracer.span` is a real context-manager span
  with contextvars parenting, for retrains and hot swaps where a few
  microseconds of bookkeeping are irrelevant and genuine nesting
  matters.

The span ring is bounded (``deque(maxlen=...)``), and the merged trace
view is truncated to the ring capacity: long-running servers keep the
most recent traces and a monotone ``seen`` total, never unbounded
memory.  Invocation trace ids are per-log monotone invocation indices
(stable across ring eviction); span ids come from the tracer's own
counter.  Ordering across sources is per-source most-recent-last — a
merged global order would need hot-path timestamps, which is exactly
the cost this design avoids.  ``ThreadPoolExecutor`` does not
propagate contextvars, so spans opened inside backend workers become
trace roots — by design: each worker invocation is its own causal
unit.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["Span", "Tracer"]

_DEFAULT_CAPACITY = 4096

#: Current live span, for contextvars parenting of cold-path spans.
_current_span: ContextVar = ContextVar("repro_obs_current_span",
                                       default=None)


class Span:
    """One timed node in a trace tree (JSON-ready via :meth:`to_dict`)."""

    __slots__ = ("name", "seconds", "attrs", "children")

    def __init__(self, name: str, seconds: float = 0.0,
                 attrs: dict | None = None):
        self.name = name
        self.seconds = seconds
        self.attrs = attrs or {}
        self.children: list[Span] = []

    def child(self, name: str, seconds: float = 0.0,
              attrs: dict | None = None) -> "Span":
        node = Span(name, seconds, attrs)
        self.children.append(node)
        return node

    def freeze(self) -> "Span":
        """Already immutable — lets finished spans sit beside
        :class:`_LiveSpan` children in a live span tree."""
        return self

    def to_dict(self) -> dict:
        out = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self):
        return (f"Span({self.name!r}, {self.seconds:.3g}s, "
                f"children={len(self.children)})")


class _LiveSpan:
    """Mutable span under construction inside :meth:`Tracer.span`."""

    __slots__ = ("name", "attrs", "children", "start", "seconds")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list = []
        self.start = time.perf_counter()
        self.seconds = 0.0

    def freeze(self) -> Span:
        span = Span(self.name, self.seconds, self.attrs or None)
        span.children = [c.freeze() for c in self.children]
        return span


class Tracer:
    """Bounded ring of recent spans, recorded post hoc or by context."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._ids = itertools.count(1)          # atomic under the GIL
        self._appended = itertools.count()      # one tick per ring append
        self._seen_reads = 0
        self._seen_lock = threading.Lock()      # sources + reads of seen
        self._sources: list = []                # weakref.ref -> source
        self.enabled = True

    @property
    def seen(self) -> int:
        """Total traces recorded *into the ring* (survives eviction);
        :meth:`snapshot` adds the registered sources' own totals.

        Writers tick ``_appended`` without a lock.  A count can only be
        read by advancing it, so reads are serialised and take the
        ticks of earlier reads back out."""
        with self._seen_lock:
            self._seen_reads += 1
            return next(self._appended) - self._seen_reads + 1

    # -- trace sources ---------------------------------------------------
    def register_source(self, source) -> None:
        """Register a trace source (the read-time half of tracing).

        A source keeps its own ring of invocations and exposes
        ``trace_entries(limit)`` (compact ``("inv", ...)`` tuples,
        most-recent-last) plus a monotone ``seen`` total — the
        :class:`~repro.runtime.events.EventLog` contract.  Held weakly,
        like registry collectors: dropped logs silently stop
        contributing.
        """
        with self._seen_lock:
            self._sources.append(weakref.ref(source))

    def _live_sources(self) -> list:
        sources, dead = [], False
        for ref in self._sources:
            source = ref()
            if source is None:
                dead = True
                continue
            sources.append(source)
        if dead:
            with self._seen_lock:
                self._sources = [r for r in self._sources
                                 if r() is not None]
        return sources

    # -- warm path -------------------------------------------------------
    def record_span(self, name: str, seconds: float, **attrs) -> None:
        """Post-hoc span record: the cheap sibling of :meth:`span` for
        hot-ish code that timed itself (no contextvars round trip, no
        generator frame).  Nests under an enclosing live :meth:`span`
        when one is open on this thread, else folds into the ring — as
        one deque append, the :class:`Span` is built on read."""
        if not self.enabled:
            return
        parent = _current_span.get()
        if parent is not None:
            parent.children.append(Span(name, seconds, attrs))
        else:
            self._ring.append(("rec", next(self._ids), name, seconds, attrs))
            next(self._appended)

    # -- cold path -------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Timed span; nests under any enclosing :meth:`span`.

        Root spans fold into the ring on exit.  An exception inside the
        span is recorded (``attrs["error"]``) and re-raised.
        """
        if not self.enabled:
            yield None
            return
        live = _LiveSpan(name, attrs)
        parent = _current_span.get()
        token = _current_span.set(live)
        try:
            yield live
        except BaseException as exc:
            live.attrs = dict(live.attrs, error=type(exc).__name__)
            raise
        finally:
            live.seconds = time.perf_counter() - live.start
            _current_span.reset(token)
            if parent is not None:
                parent.children.append(live)
            else:
                self._ring.append(("span", next(self._ids), live))
                next(self._appended)

    # -- read side -------------------------------------------------------
    @staticmethod
    def _materialize(entry) -> dict:
        kind = entry[0]
        if kind != "inv":
            if kind == "span":
                _, trace_id, live = entry
                root = live.freeze()
            else:                           # "rec": a post-hoc flat span
                _, trace_id, name, seconds, attrs = entry
                root = Span(name, seconds, attrs)
            return {"trace_id": trace_id, "kind": "span",
                    "name": root.name, "seconds": root.seconds,
                    "root": root.to_dict()}
        _, trace_id, region, path, seconds, phases, notes = entry
        root = Span(f"invoke:{region}", seconds,
                    {"region": region, "path": path})
        items = phases.items() if isinstance(phases, dict) else phases
        for phase_name, phase_seconds in items:
            root.child(getattr(phase_name, "value", phase_name),
                       phase_seconds)
        if notes:
            # Decision context becomes zero-duration annotation spans so
            # the causal chain (policy decision → breaker verdict →
            # shadow outcome) reads in order under the invocation root.
            for key in ("policy", "breaker", "shadow"):
                if key in notes:
                    root.child(key, 0.0, {key: notes[key]})
            extra = {k: v for k, v in notes.items()
                     if k not in ("policy", "breaker", "shadow")}
            if extra:
                root.attrs.update(extra)
        return {"trace_id": trace_id, "kind": "invocation",
                "region": region, "path": path, "seconds": seconds,
                "root": root.to_dict()}

    def _entries(self) -> list:
        """Source entries (registration order) then ring entries,
        bounded to the most recent ``capacity`` overall."""
        entries = []
        for source in self._live_sources():
            entries.extend(source.trace_entries(self.capacity))
        entries.extend(tuple(self._ring))
        return entries[-self.capacity:]

    def traces(self, region: str | None = None,
               limit: int | None = None) -> list:
        """Most-recent-last trace dicts (filtered, optionally truncated).

        Merges the span ring with all registered trace sources; spans
        carry no region, so a ``region`` filter selects invocations
        only.
        """
        out = []
        for entry in self._entries():
            if region is not None:
                entry_region = entry[2] if entry[0] == "inv" else None
                if entry_region != region:
                    continue
            out.append(self._materialize(entry))
        if limit is not None:
            out = out[-limit:]
        return out

    def last(self) -> dict | None:
        """The newest trace, or None if nothing was recorded."""
        entries = self._entries()
        if not entries:
            return None
        return self._materialize(entries[-1])

    def __len__(self):
        return len(self._ring)

    def snapshot(self) -> dict:
        """State summary + materialized traces (JSON-ready).

        ``seen`` totals the ring plus every source; ``buffered`` is
        the merged, capacity-bounded trace view actually returned.
        """
        traces = self.traces()
        seen = self.seen + sum(s.seen for s in self._live_sources())
        return {"capacity": self.capacity, "seen": seen,
                "buffered": len(traces), "traces": traces}

    def reset(self) -> None:
        self._ring.clear()
        self._sources.clear()
        with self._seen_lock:
            self._appended = itertools.count()
            self._seen_reads = 0
