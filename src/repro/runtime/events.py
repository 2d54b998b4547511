"""Runtime event timing: the Fig. 6 breakdown instrumentation.

Every region invocation records where its time went: mapping
application memory **to tensors**, running the **inference engine**,
mapping tensors back **from tensors**, or executing the **accurate
path** (original kernel).  :class:`EventLog` aggregates per-phase
totals so the benchmark harness can print the proportions of Fig. 6.

The log is the observability layer's hot-path measurement point and is
built around a **bounded ring with exact aggregates**: raw
:class:`InvocationRecord` objects live in a ring of configurable
capacity (long-running servers no longer grow without bound), and
records evicted from the ring are folded into per-(region, path) phase
totals first — so ``total``/``count``/``breakdown`` stay exact over
the whole run even after raw records are dropped.

The ring is the observability layer's **single measurement**; every
other view derives from it lazily, so default-on instrumentation adds
(nearly) nothing to the invocation path:

* **metrics** — the log registers as a registry *collector*:
  per-(region, path) counters are computed from the exact aggregates
  at snapshot time, and latency-histogram observations are folded
  from the ring on the same scrape (cursor-tracked, each record
  observed exactly once; eviction folds first, so nothing is lost).
* **traces** — the log registers as a tracer *source*: the span trees
  (to_tensor → infer/accurate → shadow → policy → breaker) are
  materialized at read time from the phase timings and notes each
  record already carries.
* **stream** — the one genuinely eager fan-out: when a
  :class:`~repro.obs.stream.DecisionStream` is attached,
  :meth:`EventLog.finish` appends one persisted per-decision record
  (replay needs every decision, not a sampled view).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from enum import Enum

from .. import obs as _obs_module
from ..codegen import generate

__all__ = ["Phase", "InvocationRecord", "EventLog"]

#: Default ring capacity: large enough that benchmark-harness runs and
#: tests never see an eviction (their index-based windowing stays
#: valid), small enough to bound a long-running server's memory.
_DEFAULT_CAPACITY = 65536

#: A streamed record's notes where it made none.
_NO_NOTES = {"digest": 0, "policy": None, "breaker": None, "shadow": None,
             "spend": None, "precision": None}


class Phase(Enum):
    TO_TENSOR = "to_tensor"
    INFERENCE = "inference"
    FROM_TENSOR = "from_tensor"
    ACCURATE = "accurate"
    COLLECT_IO = "collect_io"
    #: Accurate-kernel time spent *validating* an infer-path invocation
    #: (QoS shadow validation) — kept apart from ACCURATE so serving
    #: summaries can report validation overhead separately.
    SHADOW = "shadow"

    # Phases key every record's ``times`` dict on the invocation path.
    # ``Enum.__hash__`` is a Python-level ``hash(self._name_)``; members
    # are singletons, so the C-level identity hash is just as exact.
    __hash__ = object.__hash__


class InvocationRecord:
    """Timing of a single region invocation, seconds per phase.

    ``notes`` carries decision context for the trace/stream fan-out
    (policy reason, breaker verdict, shadow error, inputs digest, ...)
    and stays ``None`` until the first :meth:`note` — zero cost for
    code that only times phases.
    """

    __slots__ = ("path", "region", "times", "notes", "finished")

    def __init__(self, path: str, times: dict | None = None,
                 region: str | None = None):
        self.path = path
        self.region = region
        self.times: dict = times if times is not None else {}
        self.notes: dict | None = None
        self.finished = False

    def add(self, phase: Phase, seconds: float) -> None:
        times = self.times
        times[phase] = times[phase] + seconds if phase in times else seconds

    def note(self, key: str, value) -> None:
        """Attach one piece of decision context (trace/stream fan-out)."""
        if self.notes is None:
            self.notes = {}
        self.notes[key] = value

    @property
    def total(self) -> float:
        return sum(self.times.values())

    def __repr__(self):
        return (f"InvocationRecord(path={self.path!r}, "
                f"region={self.region!r}, total={self.total:.3g})")


class _Agg:
    """Invocation count and per-phase seconds of one (region, path)."""

    __slots__ = ("count", "times")

    def __init__(self, count: int = 0, times=()):
        self.count = count
        self.times: dict = dict(times)


def _fold(records, into: dict) -> dict:
    """Add each record to ``into[(region, path)]``; returns ``into``."""
    for rec in records:
        key = (rec.region, rec.path)
        agg = into.get(key)
        if agg is None:
            agg = into[key] = _Agg()
        agg.count += 1
        times = agg.times
        for phase, seconds in rec.times.items():
            times[phase] = times.get(phase, 0.0) + seconds
    return into


class EventLog:
    """Accumulates invocation records and answers breakdown queries.

    Thread-safety model: serving backends give each region a single
    writer thread, so record mutation is single-writer; the ring trim
    and aggregate fold run under a lock, and cross-thread reads during
    a fold may transiently double-count at most one trim chunk —
    quiesced totals are always exact.
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY,
                 stream=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.records: list[InvocationRecord] = []
        self.dropped = 0
        self.stream = stream
        self._agg: dict[tuple, _Agg] = {}
        self._hist_cache: dict = {}
        self._hist_cursor = 0    # absolute index of next unfolded record
        # RLock: _trim folds histograms while already holding it.
        self._trim_lock = threading.RLock()
        #: region -> records awaiting in-order release (see :meth:`hold`).
        self._held: dict = {}
        self._hold_lock = threading.RLock()   # release() re-enters finish()
        self._register_collector()

    def _register_collector(self) -> None:
        _obs_module.metrics().register_collector(self)
        _obs_module.tracer().register_source(self)

    # -- recording ------------------------------------------------------
    @staticmethod
    def open_lines(log: str, out: str, path: str, region: str) -> list:
        """A program's lines opening record ``out`` of ``path`` and
        ``region`` on the log ``log`` (expressions; ``InvocationRecord``
        among their globals): :meth:`new_record`'s body, the ring's
        append and trim rule."""
        return [f"{out} = InvocationRecord({path}, None, {region})",
                f"{log}.records.append({out})",
                f"if len({log}.records) > {log}.capacity:",
                f"    {log}._trim()"]

    @staticmethod
    def finish_lines(log: str, out: str, streamed: bool) -> list:
        """A program's lines finishing its fresh record ``out`` on ``log``:
        :meth:`finish`, or only its flag for a log with no stream (which
        then has nothing to append or park)."""
        return [f"{log}.finish({out})" if streamed
                else f"{out}.finished = True"]

    new_record = generate("new_record", "\n".join([
        "def new_record(self, path, region=None):",
        *(f"    {line}" for line in open_lines("self", "rec", "path",
                                               "region")),
        "    return rec"]), {"InvocationRecord": InvocationRecord})

    def _trim(self) -> None:
        """Fold the oldest quarter of the ring into the aggregates.

        Trimming in chunks keeps the amortized append cost O(1) (one
        front ``del`` per capacity/4 appends) while bounding live
        memory at ~1.25× capacity.
        """
        with self._trim_lock:
            excess = len(self.records) - self.capacity
            if excess <= 0:
                return
            chunk = max(excess, self.capacity // 4)
            # Evicted records leave the lazy-fold window, so observe
            # them into the latency histograms first (batched: the
            # whole chunk folds with warm caches, off the append path).
            self._fold_histograms()
            folded = self.records[:chunk]
            _fold(folded, self._agg)
            del self.records[:chunk]
            self.dropped += len(folded)

    @contextmanager
    def timed(self, record: InvocationRecord, phase: Phase):
        start = time.perf_counter()
        try:
            yield
        finally:
            record.add(phase, time.perf_counter() - start)

    def finish(self, record: InvocationRecord) -> InvocationRecord:
        """Mark one invocation complete (the views fold from it later).

        Idempotent (batched deliveries and fallback re-records can race
        a flush).  Metrics and traces derive from the ring at snapshot
        / read time, so the only per-invocation work here is the eager
        stream append when a :class:`~repro.obs.stream.DecisionStream`
        is attached and ``repro.obs`` is enabled.  While the record's
        region has one on :meth:`hold`, a streamed record parks behind
        it — still open — and is finished by :meth:`release`.
        """
        if record.finished:
            return record
        # Module global: the cheapest gate on the per-invocation path.
        stream = self.stream if _obs_module._enabled else None
        if stream is not None and self._held and self._park(record):
            return record
        record.finished = True
        if stream is not None:
            notes = record.notes
            notes = {**_NO_NOTES, **notes} if notes else _NO_NOTES
            stream.record(
                record.region or "region",
                digest=notes["digest"],
                path=record.path,
                reason=notes["policy"],
                breaker=notes["breaker"],
                shadow_error=notes["shadow"],
                spend=notes["spend"],
                precision=notes["precision"])
        return record

    def hold(self, record: InvocationRecord) -> None:
        """Keep ``record`` open and the stream in call order behind it.

        Coalesced shadow validation's reorder buffer: a sampled call
        returns before the kernel has judged it, so its record — and
        every streamed one its region finishes meanwhile — waits here.
        """
        with self._hold_lock:
            self._held.setdefault(record.region, []).append(record)

    def _park(self, record: InvocationRecord) -> bool:
        with self._hold_lock:
            held = self._held.get(record.region)
            if held is None:           # nothing held, or being released
                return False
            held.append(record)
            return True

    def release(self, region: str | None) -> None:
        """Finish, in arrival order, every record held for ``region``.

        An :meth:`abort`-ed one stays out of the stream.  The entry
        outlives the loop (as ``None``: nothing re-parks) so a ``finish``
        racing on another thread waits and lands after these records.
        """
        with self._hold_lock:
            held = self._held.get(region)
            if held is None:
                return
            self._held[region] = None
            try:
                for record in held:
                    self.finish(record)
            finally:
                del self._held[region]

    def abort(self, record: InvocationRecord, exc: BaseException) -> None:
        """Close the record of an invocation that raised ``exc``.

        The views must not wait for it — the histogram fold stops at
        the first unfinished record — so it is finished in place with
        ``error`` noting the exception type.  No stream append: the
        call made no decision that was served.  A record already
        finished is left alone.
        """
        if not record.finished:
            record.note("error", type(exc).__name__)
            record.finished = True

    def _fold_histograms(self) -> None:
        """Observe finished-but-unfolded records into latency histograms.

        Cursor-tracked in absolute (pre-eviction) indices so each
        record is observed exactly once across snapshots and trims.
        Folding stops at the first unfinished record — in-flight
        invocations fold on the next scrape, once their timings are
        complete.  An :meth:`abort`-ed record is stepped over: its
        partial timings are not the latency of a served invocation.
        """
        with self._trim_lock:
            recs = self.records
            idx = max(0, self._hist_cursor - self.dropped)
            n = len(recs)
            while idx < n:
                rec = recs[idx]
                if not rec.finished:
                    break
                idx += 1
                if rec.notes and "error" in rec.notes:
                    continue
                region = rec.region or "region"
                key = (region, rec.path)
                hist = self._hist_cache.get(key)
                if hist is None:
                    hist = self._hist_cache[key] = \
                        _obs_module.metrics().histogram(
                            "region_invocation_seconds",
                            region=region, path=rec.path)
                hist.observe(rec.total)
            self._hist_cursor = self.dropped + idx

    # -- aggregation ----------------------------------------------------
    @property
    def seen(self) -> int:
        """Total records ever created (survives ring eviction)."""
        return self.dropped + len(self.records)

    def records_since(self, start: int) -> list:
        """Live records from absolute index ``start`` (pre-eviction
        numbering): callers capture ``log.seen`` before a window and
        slice with it after, robust to drops in between."""
        return self.records[max(0, start - self.dropped):]

    def trace_entries(self, limit: int | None = None) -> list:
        """Tracer-source hook: recent invocations as compact entries.

        Trace ids are the records' absolute invocation indices (stable
        across eviction, monotone per log).  Phase timings and notes go
        by reference — finished records no longer mutate, so the view
        is stable; unfinished tail records are skipped.
        """
        records = self.records[-limit:] if limit else self.records[:]
        base = self.seen - len(records)
        return [("inv", base + i + 1, rec.region or "region", rec.path,
                 rec.total, rec.times, rec.notes)
                for i, rec in enumerate(records) if rec.finished]

    def fold(self, start: int | None = None) -> dict:
        """``{(region, path): agg}`` with ``agg.count`` invocations and
        ``agg.times`` seconds per phase: the one walk every aggregate
        view reads.  Exact over the whole run (ring plus evicted); with
        ``start``, over :meth:`records_since` that absolute index."""
        if start is not None:
            return _fold(self.records_since(start), {})
        return _fold(self.records, {key: _Agg(agg.count, agg.times)
                                    for key, agg in self._agg.items()})

    def total(self, phase: Phase | None = None) -> float:
        if phase is None:
            return sum(sum(a.times.values()) for a in self.fold().values())
        return sum(a.times.get(phase, 0.0) for a in self.fold().values())

    def count(self, path: str | None = None) -> int:
        if path is None:
            return self.seen
        return sum(a.count for (_, p), a in self.fold().items() if p == path)

    def breakdown(self) -> dict:
        """Fraction of inference-path time per phase (Fig. 6 rows)."""
        phases = (Phase.TO_TENSOR, Phase.INFERENCE, Phase.FROM_TENSOR)
        infer = [a.times for (_, path), a in self.fold().items()
                 if path == "infer"]
        totals = {p: sum(t.get(p, 0.0) for t in infer) for p in phases}
        grand = sum(totals.values())
        if grand <= 0:
            return {p.value: 0.0 for p in phases}
        return {p.value: totals[p] / grand for p in phases}

    def bridge_overhead(self) -> float:
        """Bridge time relative to engine time (the paper's 0.01%–8%)."""
        engine = self.total(Phase.INFERENCE)
        bridge = self.total(Phase.TO_TENSOR) + self.total(Phase.FROM_TENSOR)
        return bridge / engine if engine > 0 else float("inf")

    def collect(self) -> list:
        """Registry-collector hook: aggregate samples at snapshot time.

        Contributes per-(region, path) invocation counts and per-phase
        seconds computed from the exact totals (ring + folded), after
        folding any deferred latency-histogram observations — all of
        the "one measurement, two views" cost lands here, at scrape
        time, none on the invocation path.  Folding runs under the
        trim lock, which also serializes histogram writers across
        scrape and eviction.
        """
        self._fold_histograms()
        samples = []
        for (region, path), agg in sorted(
                self.fold().items(),
                key=lambda kv: (str(kv[0][0]), kv[0][1])):
            labels = {"region": region or "region", "path": path}
            samples.append({"type": "counter", "name": "region_invocations",
                            "labels": dict(labels),
                            "value": agg.count})
            for phase, seconds in agg.times.items():
                samples.append({
                    "type": "counter", "name": "region_phase_seconds",
                    "labels": dict(labels, phase=phase.value),
                    "value": seconds})
        return samples

    def reset(self) -> None:
        self.records.clear()
        self._agg.clear()
        self._hist_cache.clear()
        self._hist_cursor = 0
        self.dropped = 0
        self._held.clear()
