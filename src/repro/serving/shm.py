"""Shared-memory plan execution: the process-backend transport layer.

The GIL caps :class:`~repro.serving.backends.ThreadPoolBackend` at one
core — every compiled NumPy plan step contends for the interpreter
lock, so "concurrent" regions measure ~0.9× *serial*.  This module
moves the forward pass into worker **processes** while keeping tensor
traffic off the pickle path:

* :class:`SlabRing` — a ring of preallocated float64 slabs inside one
  ``multiprocessing.shared_memory`` segment, with a lease/return
  protocol.  The parent leases a slab, writes the ``(B, *features)``
  batch into it, and ships only ``(segment name, offset, shape)``
  across the pipe; the worker runs the forward and writes the outputs
  back into the *same* slab.  No array bytes are ever pickled on the
  hot path.
* :func:`worker_main` — the worker process loop.  Each worker owns a
  private :class:`~repro.runtime.infer.InferenceEngine` (its own model
  cache and compiled-plan cache), accumulates local obs counters and a
  forward-latency histogram, and answers a small request vocabulary:
  ``infer`` (slab handoff), ``infer_pickle`` (baseline transport for
  the IPC-overhead benchmark), ``invalidate``/``warmup`` (the hot-swap
  invalidation protocol — the parent broadcasts and waits for acks),
  ``counters`` (registry-format samples folded into the parent
  registry at snapshot), and ``ping``/``sleep``/``close``.
* :class:`WorkerHandle` — the parent-side endpoint.  Requests are
  serialized per worker; replies are awaited with a liveness poll so a
  killed worker raises :class:`WorkerCrashed` within ~50 ms and a
  wedged one is killed and raises :class:`WorkerTimeout` — failures
  surface through the region's circuit breaker instead of hanging
  ``drain``.
* :class:`RemoteEngineClient` plus the two engine adapters
  (:class:`ProcessInferenceEngine`,
  :class:`ProcessBatchedInferenceEngine`) — drop-in engines whose
  forward runs in a worker.  ``last_timing`` is populated from the
  worker's reply so the Fig. 6 INFERENCE phase accounting is
  unchanged, and the parent-side SURROGATE fault seam still fires so
  the PR-6 resilience harness exercises process backends too.

Worker-side segment attachment avoids ``SharedMemory(name=...)`` where
it can (a raw ``mmap`` of ``/dev/shm/<name>`` on Linux): the
``resource_tracker`` would otherwise adopt the parent's segments and
destroy them when the *worker* exits.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from ..resilience import faults as _faults
from ..runtime.batch import BatchedInferenceEngine
from ..runtime.infer import InferenceEngine, ModelCache

__all__ = [
    "SlabRing", "WorkerHandle", "WorkerCrashed", "WorkerTimeout",
    "WorkerError", "RemoteEngineClient", "ProcessInferenceEngine",
    "ProcessBatchedInferenceEngine", "worker_main",
]

#: Smallest slab allocated (floats): 512 rows × 8 features.  Rings
#: grow by replacement when a batch exceeds the slot size.
_MIN_SLOT_FLOATS = 4096

#: Worker-side cap on cached segment attachments (stale rings are
#: evicted oldest-first; the parent never references a replaced ring
#: again, so eviction cannot race a live slab).
_ATTACH_CACHE = 8

#: Liveness poll period while awaiting a reply: a ``kill -9``'d worker
#: is detected within one period instead of hanging the request.
_POLL_SECONDS = 0.05

#: How long either end of a pipe polls (yielding the CPU between
#: polls) before it blocks.  A peer that has blocked costs a scheduler
#: wake-up per message (~110 us each way measured, against a 26 us
#: back-to-back round trip); a slab forward replies well inside this
#: window, so the steady-state round trip never sleeps, and an idle
#: worker burns at most one window per request.
_SPIN_SECONDS = 0.0015


def _spin_poll(conn) -> bool:
    """Poll ``conn`` for up to :data:`_SPIN_SECONDS`; True if readable.

    The yield between polls is what keeps this sound on a box with as
    many runnable threads as cores: it hands the core to the peer
    process and drops the interpreter lock for the parent's other
    affinity threads, which a tight spin would starve.
    """
    deadline = time.monotonic() + _SPIN_SECONDS
    while not conn.poll(0):
        if time.monotonic() >= deadline:
            return False
        os.sched_yield()
    return True


class WorkerCrashed(RuntimeError):
    """The worker process died (or its pipe broke) mid-request."""


class WorkerTimeout(RuntimeError):
    """The worker exceeded the request deadline and was killed."""


class WorkerError(RuntimeError):
    """The worker's request handler raised; carries the remote error."""


# ---------------------------------------------------------------------------
# Slab ring (parent side)
# ---------------------------------------------------------------------------
class SlabRing:
    """A ring of ``slots`` preallocated float64 slabs in one segment.

    Lease/return protocol: :meth:`lease` blocks until a slab is free
    and hands back its index; the caller fills :meth:`slot`, ships
    ``(name, index * slot_floats, shape)`` to a worker, reads the
    outputs back out of the same view, and :meth:`release`\\ s it.
    Thread-safe so several region-affinity threads can share one ring.
    """

    def __init__(self, slot_floats: int, slots: int = 4):
        if slot_floats < 1 or slots < 1:
            raise ValueError("slot_floats and slots must be >= 1")
        self.slot_floats = int(slot_floats)
        self.slots = int(slots)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.slots * self.slot_floats * 8)
        self._flat = np.frombuffer(self._shm.buf, dtype=np.float64)
        self._free = list(range(self.slots))
        self._cond = threading.Condition()
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def outstanding(self) -> int:
        """Slabs currently leased."""
        return self.slots - len(self._free)

    def lease(self, timeout: float | None = None) -> int:
        with self._cond:
            deadline = None if timeout is None \
                else time.monotonic() + timeout
            while not self._free:
                if self._closed:
                    raise RuntimeError("slab ring is closed")
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise WorkerTimeout(
                        f"no free slab in {self.name} after {timeout}s")
                self._cond.wait(remaining)
            if self._closed:
                raise RuntimeError("slab ring is closed")
            return self._free.pop()

    def slot(self, index: int) -> np.ndarray:
        """The 1-D float64 view of slab ``index``."""
        base = index * self.slot_floats
        return self._flat[base:base + self.slot_floats]

    def release(self, index: int) -> None:
        with self._cond:
            self._free.append(index)
            self._cond.notify()

    def close(self) -> None:
        """Release and unlink the segment.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._flat = None
        try:
            self._shm.close()
        except BufferError:
            pass                     # an escaped view pins the mapping
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self):
        return (f"SlabRing({self.name!r}, slots={self.slots}, "
                f"slot_floats={self.slot_floats})")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _attach_segment(name: str):
    """Attach a shared-memory segment by name, tracker-neutrally.

    Returns ``(flat float64 array, closer)``.  The Linux fast path
    mmaps ``/dev/shm/<name>`` directly — no resource-tracker
    registration, and the mapping stays valid after the parent unlinks
    a replaced ring.  The portable fallback attaches via
    :class:`SharedMemory` and unregisters it from the tracker so the
    worker's exit cannot destroy the parent's segment.
    """
    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        fd = os.open(path, os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            buf = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        return np.frombuffer(buf, dtype=np.float64), buf.close
    shm = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return np.frombuffer(shm.buf, dtype=np.float64), shm.close


def worker_main(conn, index: int) -> None:
    """The worker process request loop (one per pool slot).

    Owns a private engine — model cache and compiled-plan cache live
    here, which is the whole point: plan execution no longer shares
    the parent's interpreter lock.  Local obs counters/histogram are
    shipped to the parent on ``counters`` requests (registry sample
    format) so the parent registry's exact-aggregates guarantee
    extends across the process boundary.
    """
    from ..obs.registry import Histogram
    engine = InferenceEngine()
    segments: dict = {}            # name -> (flat, closer), insertion order
    labels = {"worker": str(index)}
    requests = rows = errors = invalidations = 0
    forward_hist = Histogram("worker_forward_seconds", dict(labels))

    def attach(name: str) -> np.ndarray:
        cached = segments.get(name)
        if cached is not None:
            return cached[0]
        flat, closer = _attach_segment(name)
        segments[name] = (flat, closer)
        if len(segments) > _ATTACH_CACHE:
            stale = next(iter(segments))
            old_flat, old_closer = segments.pop(stale)
            del old_flat
            try:
                old_closer()
            except BufferError:
                pass               # a view escaped; leave it to exit
        return flat

    def samples() -> list:
        return [
            {"type": "counter", "name": "worker_infer_requests",
             "labels": dict(labels), "value": requests},
            {"type": "counter", "name": "worker_infer_rows",
             "labels": dict(labels), "value": rows},
            {"type": "counter", "name": "worker_infer_errors",
             "labels": dict(labels), "value": errors},
            {"type": "counter", "name": "worker_model_invalidations",
             "labels": dict(labels), "value": invalidations},
            forward_hist.sample(),
        ]

    while True:
        try:
            _spin_poll(conn)       # then block: recv waits if it missed
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op == "infer":
                # Per-message dtype negotiation: a trailing dtype-name
                # token reinterprets the float64-addressed slab as that
                # dtype (pre-negotiation clients omit it).  float32
                # messages thus pack 2x the payload per slot and ship
                # half the bytes each way.
                _, model_path, ring_name, offset, cap, shape = msg[:6]
                dt = np.dtype(msg[6] if len(msg) > 6 else np.float64)
                flat = attach(ring_name)
                scale = 8 // dt.itemsize        # dt units per f64 word
                fview = flat if dt == np.float64 else flat.view(dt)
                base, cap_units = offset * scale, cap * scale
                n_in = int(np.prod(shape))
                x = fview[base:base + n_in].reshape(shape)
                cpu0 = time.process_time()
                out = engine.infer(model_path, x,
                                   dtype=None if dt == np.float64 else dt)
                busy = time.process_time() - cpu0
                out = np.asarray(out, dtype=dt)
                requests += 1
                rows += len(x)
                forward_hist.observe(engine.last_timing.get(
                    "forward_wall", busy))
                if out.size <= cap_units:
                    fview[base:base + out.size] = out.reshape(-1)
                    conn.send(("ok", out.shape, engine.last_timing, busy))
                else:
                    # Output exceeds the slab: fall back to pickling
                    # this one reply (the client counts these so the
                    # benchmark can assert the hot path stayed at 0).
                    conn.send(("big", out, engine.last_timing, busy))
            elif op == "infer_pickle":
                _, model_path, x = msg[:3]
                dt = np.dtype(msg[3] if len(msg) > 3 else np.float64)
                cpu0 = time.process_time()
                out = engine.infer(model_path, x,
                                   dtype=None if dt == np.float64 else dt)
                busy = time.process_time() - cpu0
                requests += 1
                rows += len(x)
                forward_hist.observe(engine.last_timing.get(
                    "forward_wall", busy))
                conn.send(("ok", np.asarray(out, dtype=dt),
                           engine.last_timing, busy))
            elif op == "invalidate":
                _, model_path = msg
                if model_path is None:
                    engine.cache.clear()
                    engine._plans.clear()
                    dropped = True
                else:
                    dropped = engine.cache.invalidate(model_path)
                invalidations += 1
                conn.send(("ok", dropped))
            elif op == "warmup":
                engine.warmup(msg[1])
                conn.send(("ok",))
            elif op == "counters":
                conn.send(("ok", samples()))
            elif op == "ping":
                conn.send(("ok", os.getpid()))
            elif op == "sleep":       # chaos/test hook: a wedged worker
                time.sleep(msg[1])
                conn.send(("ok",))
            elif op == "close":
                conn.send(("ok",))
                break
            else:
                conn.send(("err", "ValueError", f"unknown op {op!r}"))
        except Exception as exc:     # reply, never kill the loop
            errors += 1
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except (BrokenPipeError, OSError):
                break
    for _, closer in segments.values():
        try:
            closer()
        except BufferError:
            pass
    conn.close()


# ---------------------------------------------------------------------------
# Parent-side worker endpoint
# ---------------------------------------------------------------------------
class WorkerHandle:
    """Request/reply endpoint for one worker process.

    One request is in flight per worker at a time (the lock covers
    send → reply), which matches the backend's region-affinity model.
    Liveness is checked while waiting: a dead worker raises
    :class:`WorkerCrashed` within ~:data:`_POLL_SECONDS`, a deadline
    overrun kills the worker and raises :class:`WorkerTimeout` — both
    surface as breaker failures on the serving path, so a lost worker
    quarantines its regions instead of hanging ``drain``.

    ``last_samples`` caches the worker's most recent obs samples; a
    crashed worker keeps contributing its last-known counters to the
    parent registry, preserving exact aggregates.
    """

    def __init__(self, index: int, ctx, request_timeout: float = 60.0):
        self.index = index
        self.request_timeout = request_timeout
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main,
                                args=(child_conn, index),
                                name=f"repro-worker-{index}", daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.lock = threading.Lock()
        self.dead: str | None = None
        self.last_samples: list = []
        self.requests = 0

    @property
    def alive(self) -> bool:
        return self.dead is None and self.proc.is_alive()

    def _mark_dead(self, reason: str, kill: bool = False) -> None:
        self.dead = reason
        if kill:
            try:
                self.proc.kill()
            except Exception:
                pass
        self.proc.join(timeout=1.0)

    def request(self, msg, timeout: float | None = None):
        """Send ``msg`` and await the reply; raises on crash/timeout."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.request_timeout)
        with self.lock:
            if self.dead is not None:
                raise WorkerCrashed(
                    f"worker {self.index} is dead ({self.dead})")
            try:
                self.conn.send(msg)
            except (BrokenPipeError, OSError) as exc:
                self._mark_dead(f"send failed: {exc}")
                raise WorkerCrashed(
                    f"worker {self.index} pipe broke on send") from exc
            spun = False
            while True:
                try:
                    # One bounded spin first (a slab forward's reply
                    # lands inside it), then liveness-poll periods.
                    ready = self.conn.poll(_POLL_SECONDS) if spun \
                        else _spin_poll(self.conn)
                except (BrokenPipeError, OSError) as exc:
                    self._mark_dead(f"poll failed: {exc}")
                    raise WorkerCrashed(
                        f"worker {self.index} pipe broke") from exc
                if ready:
                    break
                spun = True
                if not self.proc.is_alive():
                    # A final drain of the pipe: the worker may have
                    # replied and exited between polls.
                    if self.conn.poll(0):
                        break
                    self._mark_dead("process died")
                    raise WorkerCrashed(
                        f"worker {self.index} died mid-request "
                        f"(exitcode {self.proc.exitcode})")
                if time.monotonic() > deadline:
                    self._mark_dead("request timeout", kill=True)
                    raise WorkerTimeout(
                        f"worker {self.index} exceeded "
                        f"{timeout or self.request_timeout}s; killed")
            try:
                reply = self.conn.recv()
            except (EOFError, OSError) as exc:
                self._mark_dead(f"recv failed: {exc}")
                raise WorkerCrashed(
                    f"worker {self.index} died mid-reply") from exc
            self.requests += 1
        if reply[0] == "err":
            raise WorkerError(f"worker {self.index}: {reply[1]}: {reply[2]}")
        return reply

    def pull_samples(self) -> list:
        """Refresh (best-effort) and return the worker's obs samples."""
        if self.alive:
            try:
                self.last_samples = self.request(("counters",))[1]
            except (WorkerCrashed, WorkerTimeout, WorkerError):
                pass
        return self.last_samples

    def close(self, timeout: float = 2.0) -> None:
        """Graceful stop, escalating to kill.  Idempotent."""
        if self.dead is None and self.proc.is_alive():
            try:
                self.request(("close",), timeout=timeout)
            except (WorkerCrashed, WorkerTimeout, WorkerError):
                pass
        self.dead = self.dead or "closed"
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:
            pass

    def __repr__(self):
        state = self.dead or ("alive" if self.proc.is_alive() else "exited")
        return f"WorkerHandle(index={self.index}, {state})"


# ---------------------------------------------------------------------------
# Engine adapters (parent side)
# ---------------------------------------------------------------------------
class RemoteEngineClient:
    """Executes engine forwards in a worker via the slab protocol.

    One client per adopted region (clients sharing a worker serialize
    on its handle lock).  ``transport="pickle"`` ships arrays through
    the pipe instead — the baseline leg of the IPC-overhead benchmark.
    """

    def __init__(self, handle: WorkerHandle, *, slots: int = 4,
                 min_slot_floats: int = _MIN_SLOT_FLOATS,
                 transport: str = "shm", timeout: float | None = None,
                 invalidate_hook=None):
        if transport not in ("shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}")
        self.handle = handle
        self.slots = slots
        self.min_slot_floats = min_slot_floats
        self.transport = transport
        self.timeout = timeout
        #: Broadcast invalidations pool-wide (set by the backend so a
        #: hot-swap reaches every worker, not just this client's).
        self.invalidate_hook = invalidate_hook
        self._ring: SlabRing | None = None
        self.requests = 0
        self.busy_seconds = 0.0      # worker CPU seconds on our behalf
        self.pickle_fallbacks = 0    # oversized outputs that pickled
        self.bytes_shipped = 0       # payload bytes in + out (shm path)

    def _ensure_ring(self, floats_needed: int) -> SlabRing:
        ring = self._ring
        if ring is not None and ring.slot_floats >= floats_needed:
            return ring
        grown = max(floats_needed, self.min_slot_floats,
                    2 * ring.slot_floats if ring is not None else 0)
        if ring is not None:
            ring.close()             # affinity: no leases outstanding
        ring = self._ring = SlabRing(grown, slots=self.slots)
        return ring

    def infer(self, model_path, inputs, dtype=None) -> tuple:
        """One remote forward; returns ``(outputs, timing dict)``.

        ``dtype=np.float32`` negotiates the narrow wire format: inputs
        ship (and outputs return) as float32 in the same float64-sized
        slab slots, halving the bytes crossing the process boundary,
        and the worker serves its narrowed compiled plan.
        """
        dt = np.dtype(dtype) if dtype is not None else np.float64
        x = np.ascontiguousarray(np.asarray(inputs, dtype=dt))
        if self.transport == "pickle":
            msg = ("infer_pickle", str(model_path), x) \
                if dt == np.float64 else \
                ("infer_pickle", str(model_path), x, dt.name)
            reply = self.handle.request(msg, timeout=self.timeout)
            out = reply[1]
        else:
            # Ring capacity is addressed in float64 words; round the
            # payload up so narrow dtypes pack without spilling.
            ring = self._ensure_ring((x.nbytes + 7) // 8)
            slot = ring.lease(self.timeout)
            view = ring.slot(slot)
            try:
                tview = view if dt == np.float64 else view.view(dt)
                tview[:x.size] = x.reshape(-1)
                msg = ("infer", str(model_path), ring.name,
                       slot * ring.slot_floats, ring.slot_floats, x.shape)
                if dt != np.float64:
                    msg = msg + (dt.name,)
                reply = self.handle.request(msg, timeout=self.timeout)
                if reply[0] == "big":
                    out = reply[1]
                    self.pickle_fallbacks += 1
                else:
                    shape = reply[1]
                    out = np.array(
                        tview[:int(np.prod(shape))]).reshape(shape)
                self.bytes_shipped += x.nbytes + out.nbytes
            finally:
                # Drop the slab view before releasing: a raised
                # WorkerCrashed keeps this frame alive via its
                # traceback, and a lingering view would pin the
                # segment mapping past ring.close().
                view = tview = None
                ring.release(slot)
        timing, busy = reply[2], reply[3]
        self.requests += 1
        self.busy_seconds += busy
        # Parent-side SURROGATE fault seam: the worker ran a clean
        # forward, but injected faults must still poison/raise here so
        # the resilience harness exercises process backends.
        fault = _faults.fire(_faults.SURROGATE)
        if fault is not None:
            out = _faults.apply_surrogate_fault(fault, out)
        return out, dict(timing)

    def invalidate(self, model_path) -> None:
        """Drop the model from worker caches and await the ack(s)."""
        if self.invalidate_hook is not None:
            self.invalidate_hook(model_path)
        else:
            self.handle.request(
                ("invalidate",
                 None if model_path is None else str(model_path)),
                timeout=self.timeout)

    def warmup(self, model_path) -> None:
        self.handle.request(("warmup", str(model_path)),
                            timeout=self.timeout)

    def close(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring = None


class _WorkerModelCache(ModelCache):
    """A model cache whose invalidations broadcast to worker processes.

    ``hot_swap_model`` calls ``engine.cache.invalidate(path)`` then
    ``engine.warmup(path)``; with this cache both are synchronous
    worker round trips, so by the time the swap returns — and before
    the retrain loop resets the arbiter's stats — every worker has
    acked dropping the old weights.
    """

    def __init__(self, client: RemoteEngineClient):
        super().__init__()
        self._client = client

    def invalidate(self, path) -> bool:
        dropped = super().invalidate(path)
        self._client.invalidate(path)
        return dropped

    def clear(self) -> None:
        super().clear()
        self._client.invalidate(None)


class ProcessInferenceEngine(InferenceEngine):
    """Engine whose forward runs in a worker process (immediate path).

    Non-batched regions keep their invocation semantics — notably
    auto-regressive loops, which must not gain deferred delivery —
    only the forward crosses the process boundary.
    """

    def __init__(self, client: RemoteEngineClient, device=None):
        super().__init__(device=device, cache=_WorkerModelCache(client))
        self.client = client

    def infer(self, model_path, inputs, dtype=None):
        out, timing = self.client.infer(model_path, inputs, dtype=dtype)
        self.last_timing = timing
        return out

    def warmup(self, model_path, dtype=None):
        self.client.warmup(model_path)
        return None


class ProcessBatchedInferenceEngine(BatchedInferenceEngine):
    """Batched engine whose fused flush forward runs in a worker.

    Queueing, flush triggers, and scatter-back delivery stay in the
    parent (on the region's affinity thread); only the one fused
    ``(B, *features)`` forward ships across — via the slab ring, so
    batching amortizes the IPC round trip exactly like it amortizes
    the simulated transfer cost.
    """

    def __init__(self, client: RemoteEngineClient, device=None,
                 use_compiled: bool = True, max_batch_rows: int = 256):
        super().__init__(device=device, cache=_WorkerModelCache(client),
                         use_compiled=use_compiled,
                         max_batch_rows=max_batch_rows)
        self.client = client

    def _flush_forward(self, model_path, batch, dtype=None):
        out, timing = self.client.infer(model_path, batch, dtype=dtype)
        self.last_timing = timing
        return out

    def warmup(self, model_path, dtype=None):
        self.client.warmup(model_path)
        return None
