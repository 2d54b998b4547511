"""Region invocation batching: amortize per-call inference overhead.

Every :class:`~repro.runtime.region.ApproxRegion` invocation in the
seed runtime paid a full engine round trip — H2D transfer, forward,
D2H transfer — even at batch size 1.  Iterative applications invoke the
same surrogate thousands of times on small batches, so the wall-clock
is dominated by fixed per-call overhead rather than math (the
amortize-over-many-queries observation of the pragmatic-synthesis
line of work).

:class:`BatchedInferenceEngine` queues submitted invocations and
flushes them as **one** ``(B, *features)`` forward:

* **size-triggered**: a flush fires when the queued row count reaches
  ``max_batch_rows``;
* **region-triggered**: a submission for a different model (a different
  region's surrogate) flushes the current queue first, preserving
  cross-region ordering;
* **explicit**: callers invoke :meth:`flush` at a program point where
  deferred outputs must land (e.g. before reading region outputs).

Because outputs are delivered at flush time, batching is only sound for
invocations that are independent of each other's outputs.  Regions
wired to a batched engine defer their scatter-back into the per-call
``on_result`` callback; auto-regressive loops (MiniWeather stepping)
must keep the immediate engine.
"""

from __future__ import annotations

import threading
import time
from collections import namedtuple

import numpy as np

from .. import obs
from .infer import InferenceEngine

__all__ = ["BatchedInferenceEngine"]

#: Bucket bounds for the flushed-rows histogram (rows per fused
#: forward, powers of two up to typical ``max_batch_rows`` settings).
ROW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


#: One queued invocation: its input snapshot and result callback.
_Pending = namedtuple("_Pending", "inputs on_result")


class BatchedInferenceEngine:
    """A queue in front of an engine: coalesces queued invocations.

    ``inner`` (DESIGN.md §3) runs each flush's one fused forward and
    every immediate one; its model cache, device and timing are this
    engine's.  In front of a worker-process engine, batching amortizes
    the slab round trip like it amortizes the simulated transfer cost.
    """

    def __init__(self, inner=None, max_batch_rows: int = 256):
        if max_batch_rows <= 0:
            raise ValueError(f"max_batch_rows must be positive: "
                             f"{max_batch_rows}")
        self.inner = inner if inner is not None else InferenceEngine()
        self.device = self.inner.device
        self.cache = self.inner.cache
        self.max_batch_rows = max_batch_rows
        self._queue: list[_Pending] = []
        self._queue_key: str | None = None
        self._queue_dtype = None              # np.dtype | None (= float64)
        self.pending_rows = 0
        # Reentrant: submit flushes while holding it and a delivery
        # callback may submit.  Backends drain regions from their own
        # threads: queue mutation, forward and deliveries are atomic.
        self._queue_lock = threading.RLock()
        self._rows_hist = None                # lazy cached obs handles
        self._obs_tracer = None
        self.batches_flushed = 0
        self.rows_flushed = 0

    # -- the inner engine's surface ----------------------------------------
    @property
    def last_timing(self) -> dict:
        return self.inner.last_timing

    @property
    def last_inference_seconds(self) -> float:
        return self.inner.last_inference_seconds

    def warmup(self, model_path, dtype=None):
        return self.inner.warmup(model_path, dtype=dtype)

    @property
    def pending_invocations(self) -> int:
        # Deliberately a property, not __len__: a len-able engine would
        # be falsy when idle and break ``engine or default`` wiring.
        return len(self._queue)

    # -- submission ------------------------------------------------------
    def submit(self, model_path, inputs: np.ndarray, on_result=None,
               dtype=None) -> None:
        """Queue one invocation's ``(b, *features)`` inputs.

        ``on_result(outputs, seconds)`` fires at flush time with this
        submission's slice of the batched output and its proportional
        share of the device-equivalent forward time.  Inputs are copied
        at submission, so callers may reuse their buffers immediately.
        ``dtype`` selects the plan precision for the fused forward;
        mixing precisions is a flush trigger like mixing models, so a
        batch always runs one plan.
        """
        inputs = np.array(inputs)             # snapshot: defer-safe
        if dtype is not None:
            dtype = np.dtype(dtype)
        key = self.cache.key(model_path)
        with self._queue_lock:
            if self._queue and (key != self._queue_key or
                                dtype != self._queue_dtype or
                                inputs.shape[1:] !=
                                self._queue[0].inputs.shape[1:]):
                self.flush()                  # region-triggered
            self._queue.append(_Pending(inputs, on_result))
            self._queue_key = key
            self._queue_dtype = dtype
            self.pending_rows += len(inputs)
            if self.pending_rows >= self.max_batch_rows:
                self.flush()                  # size-triggered

    def flush(self) -> list:
        """Run all queued invocations as one forward; deliver results.

        Returns the per-submission output arrays in submission order.
        If the forward itself fails the queue is left intact (callers
        may repair the model file and flush again); a callback raising
        does not stop delivery to the remaining submissions — the first
        callback error re-raises after all deliveries ran.  Safe to
        call concurrently: the queue is consumed atomically, so a
        redundant flush (e.g. a server drain racing a size trigger)
        becomes a no-op instead of a double delivery, and a batch is
        delivered under the lock, so a later one cannot overtake it.
        """
        with self._queue_lock:
            if not self._queue:
                return []
            pending = self._queue
            total = self.pending_rows

            if len(pending) == 1:
                batch = pending[0].inputs
            else:
                batch = np.concatenate([p.inputs for p in pending], axis=0)
            start = time.perf_counter()
            outputs = self.inner.infer(self._queue_key, batch,
                                       dtype=self._queue_dtype)
            if obs.is_enabled():
                tracer = self._obs_tracer
                if tracer is None:
                    tracer = self._obs_tracer = obs.tracer()
                tracer.record_span(
                    "batch_flush", time.perf_counter() - start,
                    model=self._queue_key.rsplit("/", 1)[-1],
                    rows=total, invocations=len(pending))
                if self._rows_hist is None:
                    self._rows_hist = obs.metrics().histogram(
                        "batch_flush_rows", buckets=ROW_BUCKETS)
                self._rows_hist.observe(total)
            # The forward succeeded: the queue is consumed from here on
            # (a callback that submits starts the next batch).
            self._queue = []
            self.pending_rows = 0
            self.batches_flushed += 1
            self.rows_flushed += total
            forward_device = self.inner.last_inference_seconds

            results = []
            offset = 0
            first_error = None
            for p in pending:
                n = len(p.inputs)
                out = outputs[offset:offset + n]
                offset += n
                if p.on_result is not None:
                    try:
                        p.on_result(out, forward_device * (n / total))
                    except Exception as exc:
                        if first_error is None:
                            first_error = exc
                results.append(out)
        if first_error is not None:
            raise first_error
        return results

    # -- immediate path ---------------------------------------------------
    def infer(self, model_path, inputs: np.ndarray,
              dtype=None) -> np.ndarray:
        """Immediate inference; acts as a barrier for queued work."""
        self.flush()
        return self.inner.infer(model_path, inputs, dtype=dtype)
