"""Execution backends: how a :class:`RegionServer` runs invocations.

A backend turns a served region's invocation into actual execution.
Three are provided:

* :class:`SerialBackend` — runs every invocation inline on the
  caller's thread; zero scheduling overhead, so the single-region
  QoS-off latency matches a direct region call.  The default.
* :class:`ThreadPoolBackend` — one ordered lane and at most one thread
  per region (*batched-engine affinity*): a region's invocations,
  flushes, and deferred scatter-backs execute one at a time in
  submission order, so the per-region
  :class:`~repro.runtime.batch.BatchedInferenceEngine` queue is never
  touched by two threads at once while distinct regions serve
  concurrently; an item nothing else needs to start is run by the
  thread that waits on its future.  Regions scheduled on this backend
  must not share an engine or mutable state with each other.
  GIL-bound: plan execution still serializes on the interpreter lock.
* :class:`ProcessPoolBackend` — the thread backend's affinity model
  with the forward pass moved into worker **processes**: each worker
  owns a private :class:`~repro.runtime.infer.InferenceEngine` (model
  + compiled-plan caches), tensors cross via shared-memory slab rings
  (:mod:`repro.serving.shm`), and an adopted region's forwards run
  on a :class:`~repro.serving.shm.ProcessInferenceEngine`.
  Cross-region parallelism is real — distinct regions' plans execute
  on distinct cores.

The backend contract is three methods plus one hook: ``submit`` (run
one callable for a region), ``drain`` (flush a set of regions and wait
until their queues are empty), ``close`` (idempotent; ``submit`` and
``drain`` afterwards raise ``RuntimeError("backend is closed")``), and
optional ``adopt(served)`` (called by ``RegionServer.register`` so a
backend can take ownership of a region's execution resources).
``drain`` is atomic with respect to a concurrent ``close``: it either
schedules every flush or raises without scheduling any.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from collections import deque, namedtuple
from concurrent.futures import Future
from concurrent.futures._base import PENDING as _PENDING

from .. import obs
from ..runtime.batch import BatchedInferenceEngine
from .shm import (ProcessInferenceEngine, RemoteEngineClient, WorkerCrashed,
                  WorkerHandle, WorkerTimeout)

__all__ = ["ExecutionBackend", "SerialBackend", "ThreadPoolBackend",
           "ProcessPoolBackend"]


class ExecutionBackend:
    """Scheduling strategy contract for :class:`RegionServer`."""

    def submit(self, served, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` for ``served``'s region.

        Returns the call's result directly (synchronous backends) or a
        :class:`concurrent.futures.Future` resolving to it.  Raises
        ``RuntimeError`` once the backend is closed.
        """
        raise NotImplementedError

    def drain(self, served_list) -> None:
        """Flush every region in ``served_list`` and wait for quiescence.

        Atomic with a racing :meth:`close`: either every flush is
        scheduled (and close waits for them) or none is and this
        raises ``RuntimeError("backend is closed")``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker threads/processes).

        Idempotent; subsequent :meth:`submit`/:meth:`drain` raise.
        """

    def adopt(self, served) -> None:
        """Optional hook: take ownership of a newly registered region."""


class SerialBackend(ExecutionBackend):
    """Inline execution on the caller's thread (the latency baseline)."""

    def __init__(self):
        self._closed = False

    def submit(self, served, fn, args=(), kwargs=None):
        if self._closed:
            raise RuntimeError("backend is closed")
        return fn(*args, **(kwargs or {}))

    def drain(self, served_list) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        for served in served_list:
            served.region.flush()

    def close(self) -> None:
        self._closed = True


class _LaneFuture(Future):
    """A lane item's future: waiting on it may run it.

    ``result``/``exception`` without a timeout execute the item on the
    waiting thread when it heads an idle lane; every other way of
    observing the future (``done``/``running`` polling, callbacks,
    ``concurrent.futures.wait``/``as_completed``, a timed wait) hands
    the item to the lane's thread instead, so nothing is stranded on a
    waiter that never comes.
    """

    def __init__(self, lane):
        self._lane = lane
        super().__init__()

    # ``wait``/``as_completed`` install themselves in ``_waiters``
    # without calling a public method; reading it is the one hook they
    # share.
    @property
    def _waiters(self):
        self._lane.wake_for(self)
        return self._observers

    @_waiters.setter
    def _waiters(self, value):
        self._observers = value

    def _before_wait(self, timeout) -> None:
        if timeout is None:
            self._lane.run_head(self)
        else:                       # inline, the timeout could not hold
            self._lane.wake_for(self)

    def result(self, timeout=None):
        self._before_wait(timeout)
        return super().result(timeout)

    def exception(self, timeout=None):
        self._before_wait(timeout)
        return super().exception(timeout)

    def done(self):
        self._lane.wake_for(self)
        return super().done()

    def running(self):
        self._lane.wake_for(self)
        return super().running()

    def add_done_callback(self, fn):
        self._lane.wake_for(self)
        super().add_done_callback(fn)


class _Lane:
    """One region's ordered work: a queue, at most one thread, and the
    caller-runs rule.

    Items execute one at a time in submission order.  The executor is
    either the lane's own thread or — for the item at the head of an
    idle lane — the thread waiting on its future, so a synchronous
    ``submit(...).result()`` crosses no thread.  The lane's thread is
    started and woken only for items that cannot be left to a waiter
    (:meth:`wake_for`); once it has run the queue empty the lane is
    idle again.  ``wakeups`` counts those hand-offs.
    """

    def __init__(self, name: str):
        self.name = name
        self.wakeups = 0
        self._items: deque = deque()    # (future, fn, args, kwargs)
        self._cond = threading.Condition()
        self._busy = False              # an item is executing, somewhere
        self._awake = False             # the queue belongs to the thread
        self._closed = False
        self._thread: threading.Thread | None = None

    def put(self, fn, args, kwargs, wake: bool = False) -> _LaneFuture:
        """Queue one call.  It is left to its waiter only when the lane
        is idle and ``wake`` is false."""
        future = _LaneFuture(self)
        with self._cond:
            if self._closed:
                raise RuntimeError("backend is closed")
            self._items.append((future, fn, args, kwargs))
            if wake or self._busy or self._awake or len(self._items) > 1:
                self._wake_locked()
        return future

    def _wake_locked(self) -> None:
        if not self._awake:
            self._awake = True
            self.wakeups += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name=f"serve-{self.name}",
                    daemon=True)
                self._thread.start()
            self._cond.notify_all()

    def wake_for(self, future) -> None:
        """``future`` was observed by something that will not run it:
        if it still waits, the queue goes to the lane's thread."""
        if future._state == _PENDING:
            with self._cond:
                if self._items:
                    self._wake_locked()

    def run_head(self, future) -> None:
        """Execute ``future``'s item on the calling thread if it heads
        the idle lane; otherwise its executor is (or will be) the
        lane's thread."""
        if future._state != _PENDING:
            return
        with self._cond:
            if (self._busy or self._awake or not self._items
                    or self._items[0][0] is not future):
                return
            item = self._items.popleft()
            self._busy = True
        self._execute(item)

    def _execute(self, item) -> None:
        future, fn, args, kwargs = item
        try:
            if future.set_running_or_notify_cancel():
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(result)
        finally:
            # A stored exception's traceback holds this frame; emptied,
            # future -> exception -> frame -> future is no cycle.
            del item, future, fn, args, kwargs
            with self._cond:
                self._busy = False
                self._cond.notify_all()

    def _serve(self) -> None:
        cond = self._cond
        while True:
            with cond:
                while self._busy or not (self._awake and self._items):
                    if not self._busy and not self._items:
                        self._awake = False       # ran dry: idle again
                        if self._closed:
                            return
                    cond.wait()
                item = self._items.popleft()
                self._busy = True
            self._execute(item)
            del item

    def close(self) -> None:
        """Run what is queued, wait for what is running (wherever it
        runs), stop the thread."""
        with self._cond:
            self._closed = True
            if self._items:
                self._wake_locked()
            self._cond.notify_all()
            while self._busy or self._items:
                self._cond.wait()
        if self._thread is not None:
            self._thread.join()


class ThreadPoolBackend(ExecutionBackend):
    """One ordered lane per region: cross-region parallelism with
    strict per-region ordering.

    Affinity is what makes batching sound under concurrency: a region's
    invocations, flushes and deferred scatter-backs execute one at a
    time in submission order, so its batched queue is never touched by
    two threads at once, while different regions' surrogates execute in
    parallel on their lanes' threads.  ``submit`` returns a
    :class:`Future`.  *Caller-runs*: the item at the head of an idle
    lane is executed by the thread that waits on its future, and the
    lane's thread is woken only for items that cannot be left to a
    waiter — the submitting thread came back to the backend first, the
    item queued behind other work, something observed the future
    without waiting on it, or ``drain``/``close`` ran.  An unobserved
    future therefore starts no later than its submitter's next backend
    call.  ``drain`` schedules a flush on each region's lane — behind
    any queued invocations — and blocks until all complete, re-raising
    the first failure.
    """

    def __init__(self):
        self._lanes: dict[str, _Lane] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Per thread: the future it last left to a waiter.
        self._left = threading.local()

    def _lane_locked(self, name: str) -> _Lane:
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = _Lane(name)
        return lane

    def _returned(self, future=None) -> None:
        """The calling thread is back in the backend: the item it left
        to a waiter last time, if still waiting, goes to its lane's
        thread — a fan-out over several regions keeps its overlap."""
        left = getattr(self._left, "future", None)
        if left is not None:
            left._lane.wake_for(left)
        self._left.future = future

    def submit(self, served, fn, args=(), kwargs=None) -> Future:
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            lane = self._lane_locked(served.name)
        future = lane.put(fn, args, kwargs or {})
        self._returned(future)
        return future

    def drain(self, served_list) -> None:
        # Scheduling happens entirely under the lock so drain is atomic
        # with close(): a close that loses the race waits for these
        # flushes (closing a lane runs its queue); one that wins makes
        # drain raise before *any* flush was scheduled — never a
        # "backend is closed" halfway through the list.
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            futures = [self._lane_locked(s.name).put(
                s.region.flush, (), {}, wake=True) for s in served_list]
        self._returned()
        for future in futures:
            future.result()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            lanes = list(self._lanes.values())
            self._lanes.clear()
        for lane in lanes:
            lane.close()


#: One adopted region: its worker, transport and the engine it arrived with.
_Placement = namedtuple("_Placement", "served handle client original")


class ProcessPoolBackend(ThreadPoolBackend):
    """Worker processes + shared-memory slabs: parallelism past the GIL.

    Structure: the inherited per-region lanes keep ordering and
    batching sound exactly as on :class:`ThreadPoolBackend`, but an
    adopted region's engine is swapped
    (:meth:`~repro.runtime.region.ApproxRegion.swap_engine`) for a
    process adapter whose forward runs in one of ``workers`` worker
    processes — a region is placed on the live worker serving the
    fewest, so region groups spread across workers.  Tensors cross via
    a per-region :class:`~repro.serving.shm.SlabRing`; a forward's
    request and reply are fixed-layout descriptors in the worker's
    shared-memory mailbox.

    Lifecycle and failure: workers are spawned eagerly (before any
    serving thread exists, keeping fork safe); a crashed or wedged
    worker raises :class:`~repro.serving.shm.WorkerCrashed` /
    :class:`WorkerTimeout` into the invocation, which a region's
    circuit breaker converts into accurate-path fallback and
    eventually quarantine — ``drain`` never hangs on a lost worker.
    :meth:`close` restores every region's original engine, so the pool
    can be detached from a live server.

    Observability: the backend registers as a metrics-registry
    collector; worker-local counters/histograms are pulled at drain
    and snapshot time and folded into the parent registry (a dead
    worker keeps contributing its last-known samples — aggregates stay
    exact).  Hot-swap: a model invalidation broadcasts to every live
    worker and waits for each ack (see
    :class:`~repro.serving.shm._WorkerModelCache`).
    """

    def __init__(self, workers: int = 4, *, start_method: str | None = None,
                 request_timeout: float = 60.0, registry=None):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = mp.get_context(start_method)
        self.request_timeout = request_timeout
        self._handles = [WorkerHandle(i, ctx, request_timeout)
                         for i in range(workers)]
        self._placements: dict[str, _Placement] = {}
        self._adopt_lock = threading.RLock()
        self._registry = registry if registry is not None else obs.metrics()
        self._registry.register_collector(self)

    # -- placement / adoption --------------------------------------------
    def worker_for(self, name: str) -> int | None:
        """The worker index serving region ``name`` (None if unadopted)."""
        placement = self._placements.get(name)
        return placement.handle.index if placement is not None else None

    def client_for(self, name: str):
        """Region ``name``'s :class:`RemoteEngineClient` (None if
        unadopted).  Exposes per-region transport stats — request
        count, bytes shipped, pickle fallbacks — to ``bench/`` without
        touching placement internals."""
        placement = self._placements.get(name)
        return placement.client if placement is not None else None

    def adopt(self, served) -> None:
        """Take over ``served``'s engine execution.  Idempotent.

        Swaps in an engine whose forward runs on the placed worker,
        remembering the original for :meth:`close` to restore.  The
        region's delivery semantics stay: a batched region keeps its
        queue (same size trigger) in front of the worker engine, an
        immediate one stays immediate (auto-regressive loops must not
        gain batching).
        """
        with self._adopt_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if served.name in self._placements:
                return
            # The live worker with the fewest regions, ties by index:
            # round-robin while all are alive, never a dead worker.
            load = {h.index: 0 for h in self._handles if h.alive}
            if not load:
                raise RuntimeError(
                    f"{self!r} has no live worker to place region "
                    f"{served.name!r} on")
            for placement in self._placements.values():
                if placement.handle.index in load:
                    load[placement.handle.index] += 1
            handle = self._handles[min(load, key=load.get)]
            original = served.region.engine
            client = RemoteEngineClient(
                handle, timeout=self.request_timeout,
                invalidate_hook=self.invalidate_model)
            engine = ProcessInferenceEngine(client, device=original.device)
            if isinstance(original, BatchedInferenceEngine):
                engine = BatchedInferenceEngine(engine,
                                                original.max_batch_rows)
            served.region.swap_engine(engine)
            self._placements[served.name] = _Placement(
                served, handle, client, original)

    def submit(self, served, fn, args=(), kwargs=None) -> Future:
        if served.name not in self._placements:
            # Lazy adoption: backends assigned to a live server (e.g. a
            # benchmark swapping ``server.backend``) see regions that
            # never went through ``register``.
            self.adopt(served)
        return super().submit(served, fn, args, kwargs)

    # -- hot-swap invalidation protocol ----------------------------------
    def invalidate_model(self, model_path) -> int:
        """Broadcast a model/plan-cache invalidation; await each ack.

        Returns the number of workers that acked.  Dead workers are
        skipped (their caches died with them); the caller — typically
        ``hot_swap_model`` via an adopted engine's cache — therefore
        knows every *live* worker dropped the old weights before the
        arbiter's stats are reset.
        """
        acked = 0
        path = None if model_path is None else str(model_path)
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                handle.request(("invalidate", path))
                acked += 1
            except (WorkerCrashed, WorkerTimeout):
                continue
        return acked

    # -- draining / lifecycle --------------------------------------------
    def drain(self, served_list) -> None:
        super().drain(served_list)
        # Post-quiescence sample pull: worker counters fold into the
        # parent registry exactly once per drain, with nothing in
        # flight to race them.
        for handle in self._handles:
            handle.pull_samples()

    def close(self) -> None:
        """Restore engines, stop workers, release slabs.  Idempotent."""
        with self._adopt_lock:
            placements = list(self._placements.values())
            self._placements.clear()
            already_closed = self._closed
        if not already_closed:
            # Quiesce the lanes first so no invocation is mid-flight —
            # on a lane's thread or inline on a waiter's — while
            # engines are being swapped back.
            super().close()
        for placement in placements:
            region = placement.served.region
            adopted = region.engine
            try:
                region.swap_engine(placement.original)
            except (WorkerCrashed, WorkerTimeout) as exc:
                # A dead worker fails the drain, not the swap.  The queue
                # adopt gave the region is this backend's alone and is
                # dropped here: close its undelivered calls' records.
                if isinstance(adopted, BatchedInferenceEngine):
                    adopted.discard(exc)
        for handle in self._handles:
            handle.pull_samples()    # final counter fold (best effort)
        for placement in placements:
            placement.client.close()
        for handle in self._handles:
            handle.close()

    # -- chaos/testing hook ----------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker (crash-path testing)."""
        self._handles[index].proc.kill()
        self._handles[index].proc.join(timeout=2.0)

    # -- observability ----------------------------------------------------
    def collect(self) -> list:
        """Registry-collector hook: fold worker-local samples.

        Live workers are scraped on the spot; dead ones contribute
        their last pulled samples, so pool-wide counters never move
        backwards and stay exact across crashes.
        """
        samples = []
        for handle in self._handles:
            if not self._closed:
                handle.pull_samples()
            samples.extend(dict(s) for s in handle.last_samples)
        return samples

    def snapshot(self) -> dict:
        """Worker health + placement (folded into server snapshots)."""
        return {
            "workers": [
                {"index": handle.index, "pid": handle.proc.pid,
                 "alive": handle.alive, "dead_reason": handle.dead,
                 "requests": handle.requests}
                for handle in self._handles],
            "placement": {name: placement.handle.index
                          for name, placement in self._placements.items()},
        }

    def __repr__(self):
        alive = sum(1 for h in self._handles if h.alive)
        return (f"ProcessPoolBackend(workers={len(self._handles)}, "
                f"alive={alive}, regions={list(self._placements)})")
