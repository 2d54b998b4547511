"""Region invocation batching: a queue of deferred invocations.

``submit`` copies a staged call's inputs into one persistent staging
batch (the defer-safe copy); a flush runs one forward over them and
lands each call's rows through its region's ``complete_infer``.  It
fires at ``max_batch_rows`` rows, before a call for another model, plan
dtype or feature shape, and at ``flush`` or ``infer``.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import obs
from .infer import InferenceEngine

__all__ = ["BatchedInferenceEngine"]

ROW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class BatchedInferenceEngine:
    """Deferred region invocations in front of ``inner``, whose model
    cache, device and timing are this engine's (DESIGN.md §3)."""

    def __init__(self, inner=None, max_batch_rows: int = 256):
        if max_batch_rows <= 0:
            raise ValueError(f"max_batch_rows must be positive: "
                             f"{max_batch_rows}")
        self.inner = inner if inner is not None else InferenceEngine()
        self.device, self.cache = self.inner.device, self.inner.cache
        self.max_batch_rows = max_batch_rows
        # Queued ``(region, record, bound, stop)``: rows up to ``stop``.
        self._calls: list = []
        self._staging = None                  # (capacity, *features)
        self._queue_sig = None                # (model key, dtype, features)
        self.pending_rows = 0
        # Reentrant (submit flushes holding it); held through delivery.
        self._queue_lock = threading.RLock()
        self._obs_tracer = self._rows_hist = None
        self._label = (None, None)            # (model key, span label)
        self.batches_flushed = self.rows_flushed = 0

    @property
    def last_timing(self) -> dict:
        return self.inner.last_timing

    def warmup(self, model_path, dtype=None):
        return self.inner.warmup(model_path, dtype=dtype)

    @property
    def pending_invocations(self) -> int:
        return len(self._calls)

    def submit(self, region, record, bound, inputs, dtype=None) -> None:
        """Queue ``region``'s staged call (``record``, ``bound`` as
        ``complete_infer`` takes them), its ``inputs`` copied to staging."""
        dtype = None if dtype is None else np.dtype(dtype)
        features = inputs.shape[1:]
        sig = (self.cache.key(region.model_path), dtype, features)
        with self._queue_lock:
            if self._calls and sig != self._queue_sig:
                self.flush()                  # one plan per forward
            start = self.pending_rows
            stop = start + len(inputs)
            staging = self._staging
            if staging is None or stop > len(staging) or \
                    (staging.dtype, staging.shape[1:]) != \
                    (inputs.dtype, features):
                kept = staging[:start] if start else inputs[:0]
                self._staging = staging = np.empty(   # as a concatenation
                    (max(stop, self.max_batch_rows), *features),
                    np.promote_types(kept.dtype, inputs.dtype))
                staging[:start] = kept
            staging[start:stop] = inputs
            self._calls.append((region, record, bound, stop))
            self._queue_sig, self.pending_rows = sig, stop
            if stop >= self.max_batch_rows:
                self.flush()                  # size-triggered

    def flush(self) -> None:
        """One forward over the staged rows, then each call landed.  A
        raising forward consumes nothing; a raising delivery closes its
        own record and re-raises after the rest landed."""
        with self._queue_lock:
            calls, total = self._calls, self.pending_rows
            if not calls:
                return
            key, dtype, _ = self._queue_sig
            outputs = self.inner.infer(key, self._staging[:total], dtype=dtype)
            self._calls, self.pending_rows = [], 0
            self.batches_flushed += 1
            self.rows_flushed += total
            timing = self.inner.last_timing
            wall, forward_device = timing["forward_wall"], \
                timing["forward_device"]
            first_error, begin = None, 0
            for n, (region, record, bound, stop) in enumerate(calls, 1):
                try:
                    region.complete_infer(
                        record, bound, outputs[begin:stop],
                        forward_device * ((stop - begin) / total))
                except Exception as exc:
                    first_error = first_error or exc
                begin = stop
            # One span (the forward's wall) and one observation a flush.
            if obs.is_enabled():
                if self._obs_tracer is None:
                    self._obs_tracer = obs.tracer()
                    self._rows_hist = obs.metrics().histogram(
                        "batch_flush_rows", buckets=ROW_BUCKETS)
                if self._label[0] != key:
                    self._label = (key, key.rsplit("/", 1)[-1])
                self._obs_tracer.record_span(
                    "batch_flush", wall, model=self._label[1], rows=total,
                    invocations=n)
                self._rows_hist.observe(total)
        if first_error is not None:
            raise first_error

    def discard(self, exc: BaseException) -> None:
        """Drop the queued calls, closing each record with ``exc``."""
        self._drop(exc, None)

    def _drop(self, exc: BaseException, region) -> None:
        """Drop ``region``'s queued calls (every call's for None),
        closing each record with ``exc``; the others keep their order
        and their staged rows."""
        with self._queue_lock:
            kept, begin, rows, staging = [], 0, 0, self._staging
            for call in self._calls:
                stop = call[3]
                if region is None or call[0] is region:
                    call[0].events.abort(call[1], exc)
                else:
                    staging[rows:rows + stop - begin] = staging[begin:stop]
                    rows += stop - begin
                    kept.append((*call[:3], rows))
                begin = stop
            self._calls, self.pending_rows = kept, rows

    def infer(self, model_path, inputs, dtype=None) -> np.ndarray:
        """Immediate inference; a barrier for queued work."""
        self.flush()
        return self.inner.infer(model_path, inputs, dtype=dtype)
