"""Shared-memory plan execution: the process-backend transport layer.

The GIL caps :class:`~repro.serving.backends.ThreadPoolBackend` at one
core — every compiled NumPy plan step contends for the interpreter
lock, so "concurrent" regions measure ~0.9× *serial*.  This module
moves the forward pass into worker **processes** while keeping tensor
traffic off the pickle path and the kernel out of a warm round trip:

* :class:`SlabRing` — a ring of preallocated float64 slabs inside one
  ``multiprocessing.shared_memory`` segment, with a lease/return
  protocol.  The parent leases a slab, writes the ``(B, *features)``
  batch into it, the worker runs the forward and writes the outputs
  back into the *same* slab.  No array bytes are ever pickled on the
  hot path.
* the **mailbox** — one small shared segment per worker holding a
  fixed-layout request descriptor (op, model id, ring id, slot offset
  and capacity, dtype code, rank, extents) and a reply descriptor
  (status, output extents, the forward's timing), each published by a
  sequence word written last.  Model paths and ring names are
  registered once over the pipe and travel as integers afterwards, so
  a warm slab forward pickles nothing and crosses the pipe zero
  times.  Both sides wait by looking at the peer's sequence
  word for :data:`_SPIN_SECONDS` (yielding the CPU each look) and then
  *park*: raise a parked flag, look once more, block on the pipe.  The
  peer sends an empty wake token only when it sees the flag; a wake
  lost to the store/load race costs the parked parent one
  :data:`_POLL_SECONDS` period (it re-sends the worker's wake then),
  never a hang.
* :func:`worker_main` — the worker process loop.  Each worker owns a
  private :class:`~repro.runtime.infer.InferenceEngine` (its own model
  cache and compiled-plan cache), holds exactly the rings registered
  with it plus the slab views it built over them, accumulates local
  obs counters and a forward-latency histogram, and answers the
  mailbox forward plus a pipe vocabulary announced through the same
  doorbell: ``model``/``ring``/``unring`` (registration),
  ``invalidate``/``warmup`` (the hot-swap invalidation protocol — the
  parent broadcasts and waits for acks), ``counters`` (registry-format
  samples folded into the parent registry at snapshot), and
  ``ping``/``sleep``/``close``.  Oversized outputs and errors reply
  over the pipe too.
* :class:`WorkerHandle` — the parent-side endpoint.  Requests are
  serialized per worker; replies are awaited with a liveness poll so a
  killed worker raises :class:`WorkerCrashed` within ~50 ms and a
  wedged one is killed and raises :class:`WorkerTimeout` — failures
  surface through the region's circuit breaker instead of hanging
  ``drain``.
* :class:`RemoteEngineClient` plus :class:`ProcessInferenceEngine` —
  a drop-in engine whose forward runs in a worker (batched: a
  :class:`~repro.runtime.batch.BatchedInferenceEngine` in front of
  it).  ``last_timing`` is populated from the worker's reply so the
  Fig. 6 INFERENCE phase accounting is unchanged, and the parent-side
  SURROGATE fault seam still fires so the PR-6 resilience harness
  exercises process backends too.

Worker-side segment attachment avoids ``SharedMemory(name=...)`` where
it can (a raw ``mmap`` of ``/dev/shm/<name>`` on Linux): the
``resource_tracker`` would otherwise adopt the parent's segments and
destroy them when the *worker* exits.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import pickle
import struct
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from ..resilience import faults as _faults
from ..runtime.infer import InferenceEngine, ModelCache

__all__ = [
    "SlabRing", "WorkerHandle", "WorkerCrashed", "WorkerTimeout",
    "WorkerError", "RemoteEngineClient", "ProcessInferenceEngine",
    "worker_main",
]

#: Smallest slab allocated (floats): 512 rows × 8 features.  Rings
#: grow by replacement when a batch exceeds the slot size.
_MIN_SLOT_FLOATS = 4096

#: Liveness poll period while awaiting a reply: a ``kill -9``'d worker
#: is detected within one period instead of hanging the request.
_POLL_SECONDS = 0.05

#: How long either side looks at the peer's sequence word (yielding
#: the CPU between looks) before it parks on the pipe.  A parked peer
#: costs a wake token and a scheduler wake-up per message (~110 us each
#: way measured); a slab forward replies well inside this window, so
#: the steady-state round trip never sleeps, and an idle worker burns
#: at most one window per request.
_SPIN_SECONDS = 0.0015

# Mailbox layout.  The request half and the reply half each start on a
# cache line of their own: a sequence word and the owner's parked flag,
# then the descriptor one line further on.
_MAX_RANK = 8
_PAD = (0,) * _MAX_RANK
_BOX_BYTES = 512
_REQ_SEQ, _WORKER_PARKED, _REQ_OP = 0, 1, 8          # int64 word indices
_REP_SEQ, _PARENT_PARKED, _REP_STATUS = 32, 33, 40
#: op, model id, ring id, slot offset, slot capacity (float64 words),
#: dtype code, rank, extents.
_REQ = struct.Struct(f"7q{_MAX_RANK}q")
#: status, output rank, compiled, plan dtype code, lanes, output
#: extents, forward_wall, forward_device, transfer_sim.
_REP = struct.Struct(f"5q{_MAX_RANK}q3d")
_REQ_AT, _REP_AT = 8 * _REQ_OP, 8 * _REP_STATUS
_OP_PIPE, _OP_INFER = 0, 1         # "read the pipe" / a slab forward
_ST_PIPE, _ST_SLAB = 0, 1          # "reply is on the pipe" / in the box

#: Wire dtypes by descriptor code; slabs are addressed in float64
#: words, so a float32 message packs 2x the payload per slot and ships
#: half the bytes each way.
_WIRE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
_WIRE_NAMES = tuple(dt.name for dt in _WIRE_DTYPES)
_DTYPE_CODES = {dt: code for code, dt in enumerate(_WIRE_DTYPES)}


def _spin(words, index: int, stale: int) -> bool:
    """Look at mailbox word ``index`` for up to :data:`_SPIN_SECONDS`;
    True once it moved off ``stale``.

    The yield between looks is what keeps this sound on a box with as
    many runnable threads as cores: it hands the core to the peer
    process and to the parent's other lane threads, which a tight spin
    would starve.
    """
    deadline = time.monotonic() + _SPIN_SECONDS
    while words[index] == stale:
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
    and hands back its index; the caller fills :meth:`slot`, ships the
    slab's word offset ``index * slot_floats`` and the batch shape to
    a worker, reads the outputs back out of the same view, and
    :meth:`release`\\ s it.  Thread-safe so several regions' lanes can
    share one ring.
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

    Returns ``(buffer, closer)``.  The Linux fast path mmaps
    ``/dev/shm/<name>`` directly — no resource-tracker registration,
    and the mapping stays valid after the parent unlinks a replaced
    ring.  The portable fallback attaches via :class:`SharedMemory` and
    unregisters it from the tracker so the worker's exit cannot destroy
    the parent's segment.
    """
    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        fd = os.open(path, os.O_RDWR)
        try:
            buf = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        return buf, buf.close
    shm = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm.buf, shm.close


def _recv_message(conn):
    """The next pickled message on ``conn``; wake tokens are skipped."""
    while True:
        data = conn.recv_bytes()
        if data:
            return pickle.loads(data)


def worker_main(conn, index: int, mailbox: str) -> None:
    """The worker process request loop (one per pool slot).

    Owns a private engine — model cache and compiled-plan cache live
    here, which is the whole point: plan execution no longer shares
    the parent's interpreter lock.  Local obs counters/histogram are
    shipped to the parent on ``counters`` requests (registry sample
    format) so the parent registry's exact-aggregates guarantee
    extends across the process boundary.
    """
    from ..nn import plan
    from ..obs.registry import Histogram
    plan._lane_width = lambda: 1   # one process per core already
    engine = InferenceEngine()
    box, close_box = _attach_segment(mailbox)
    words = memoryview(box).cast("q")
    models: dict = {}              # id -> path
    rings: dict = {}               # id -> (flat float64, closer, views)
    labels = {"worker": str(index)}
    requests = rows = errors = invalidations = attached = 0
    forward_hist = Histogram("worker_forward_seconds", dict(labels))

    def detach(ring_id) -> None:
        flat, closer, views = rings.pop(ring_id)
        views.clear()
        del flat
        try:
            closer()
        except BufferError:
            pass                   # a view escaped; leave it to exit

    def slab_view(desc):
        """The views one request descriptor addresses, built once."""
        _, _, ring_id, offset, cap, code, rank = desc[:7]
        flat, _, views = rings[ring_id]
        dt = _WIRE_DTYPES[code]
        scale = 8 // dt.itemsize        # dt units per float64 word
        fview = flat if code == 0 else flat.view(dt)
        slab = fview[offset * scale:(offset + cap) * scale]
        shape = desc[7:7 + rank]
        if len(views) >= 64:            # batch sizes x slots, bounded
            views.clear()
        entry = views[desc] = (
            slab[:math.prod(shape)].reshape(shape), slab)
        return entry

    def counter(name, value, kind="counter"):
        return {"type": kind, "name": name, "labels": dict(labels),
                "value": value}

    def samples() -> list:
        return [
            counter("worker_infer_requests", requests),
            counter("worker_infer_rows", rows),
            counter("worker_infer_errors", errors),
            counter("worker_model_invalidations", invalidations),
            counter("worker_segments_attached", attached),
            counter("worker_segments_held", len(rings), "gauge"),
            forward_hist.sample(),
        ]

    def forward(model_path, x):
        """One engine forward in ``x``'s dtype plus its accounting;
        ``(out, timing)``."""
        nonlocal requests, rows
        out = engine.infer(
            model_path, x,
            dtype=None if x.dtype == _WIRE_DTYPES[0] else x.dtype)
        timing = engine.last_timing
        requests += 1
        rows += len(x)
        forward_hist.observe(timing["forward_wall"])
        return np.asarray(out, dtype=x.dtype), timing

    def reply(payload) -> None:
        """A reply over the pipe; the doorbell goes first, so a pipe
        that is readable before it moved holds only wake tokens."""
        words[_REP_STATUS] = _ST_PIPE
        words[_REP_SEQ] = seq
        conn.send(payload)

    def serve_slab(desc) -> None:
        """The mailbox forward: input and output live in the slab.  A
        function of its own so no view outlives the call (a lingering
        one would pin the mapping past ``unring``)."""
        x, slab = rings[desc[2]][2].get(desc) or slab_view(desc)
        out, timing = forward(models[desc[1]], x)
        if out.size > slab.size or out.ndim > _MAX_RANK:
            # Output exceeds the slab: fall back to pickling this one
            # reply (the client counts these so the benchmark can
            # assert the hot path stayed at 0).
            reply(("big", out, timing))
            return
        slab[:out.size] = out.reshape(-1)
        _REP.pack_into(
            box, _REP_AT, _ST_SLAB, out.ndim, timing["compiled"],
            _WIRE_NAMES.index(timing["dtype"]), timing["lanes"],
            *out.shape, *_PAD[out.ndim:], timing["forward_wall"],
            timing["forward_device"], timing["transfer_sim"])
        words[_REP_SEQ] = seq
        if words[_PARENT_PARKED]:
            conn.send_bytes(b"")

    seq = 0
    while True:
        try:
            if not _spin(words, _REQ_SEQ, seq):
                words[_WORKER_PARKED] = 1
                while words[_REQ_SEQ] == seq:
                    conn.poll(None)
                    if words[_REQ_SEQ] == seq:
                        conn.recv_bytes()       # a wake token
                words[_WORKER_PARKED] = 0
            seq = words[_REQ_SEQ]
            desc = _REQ.unpack_from(box, _REQ_AT)
            msg = _recv_message(conn) if desc[0] == _OP_PIPE else None
        except (EOFError, OSError):
            break
        try:
            if msg is None:
                serve_slab(desc)
                continue
            op = msg[0]
            if op == "model":
                models[msg[1]] = msg[2]
                reply(("ok",))
            elif op == "ring":
                buf, closer = _attach_segment(msg[2])
                rings[msg[1]] = (np.frombuffer(buf, dtype=np.float64),
                                 closer, {})
                attached += 1
                reply(("ok",))
            elif op == "unring":
                detach(msg[1])
                reply(("ok",))
            elif op == "invalidate":
                _, model_path = msg
                if model_path is None:
                    engine.cache.clear()
                    engine._plans.clear()
                    dropped = True
                else:
                    dropped = engine.cache.invalidate(model_path)
                invalidations += 1
                reply(("ok", dropped))
            elif op == "warmup":
                engine.warmup(msg[1])
                reply(("ok",))
            elif op == "counters":
                reply(("ok", samples()))
            elif op == "ping":
                reply(("ok", os.getpid()))
            elif op == "sleep":       # chaos/test hook: a wedged worker
                time.sleep(msg[1])
                reply(("ok",))
            elif op == "close":
                reply(("ok",))
                break
            else:
                reply(("err", "ValueError", f"unknown op {op!r}"))
        except Exception as exc:     # reply, never kill the loop
            errors += 1
            try:
                reply(("err", type(exc).__name__, str(exc)))
            except (BrokenPipeError, OSError):
                break
    for ring_id in list(rings):
        detach(ring_id)
    words.release()
    close_box()
    conn.close()


# ---------------------------------------------------------------------------
# Parent-side worker endpoint
# ---------------------------------------------------------------------------
class WorkerHandle:
    """Request/reply endpoint for one worker process.

    One request is in flight per worker at a time (the lock covers
    publish → reply), which matches the backend's region-affinity
    model — so one mailbox per handle suffices.  :meth:`forward` is
    the warm path: descriptor in, descriptor out, nothing on the pipe.
    :meth:`request` carries everything else as a pickled pipe message
    announced through the same doorbell.  Liveness is checked while
    waiting: a dead worker raises :class:`WorkerCrashed` within
    ~:data:`_POLL_SECONDS`, a deadline overrun kills the worker and
    raises :class:`WorkerTimeout` — both surface as breaker failures on
    the serving path, so a lost worker quarantines its regions instead
    of hanging ``drain``.

    ``last_samples`` caches the worker's most recent obs samples; a
    crashed worker keeps contributing its last-known counters to the
    parent registry, preserving exact aggregates.  ``pipe_sent`` /
    ``pipe_received`` count pickled pipe messages (wake tokens are not
    messages) and ``parks`` the waits that outlasted the spin window.
    """

    def __init__(self, index: int, ctx, request_timeout: float = 60.0):
        self.index = index
        self.request_timeout = request_timeout
        self._shm = shared_memory.SharedMemory(create=True, size=_BOX_BYTES)
        self._words = self._shm.buf.cast("q")
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(target=worker_main,
                                args=(child_conn, index, self._shm.name),
                                name=f"repro-worker-{index}", daemon=True)
        try:
            self.proc.start()
        except BaseException:
            self._release()
            raise
        finally:
            child_conn.close()
        self.lock = threading.Lock()
        self.dead: str | None = None
        self.last_samples: list = []
        self.requests = 0
        self.pipe_sent = self.pipe_received = self.parks = 0
        self._seq = 0
        self._ids = itertools.count()     # model and ring ids
        self._models: dict = {}           # path -> registered id

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

    # -- the exchange ------------------------------------------------------
    def _pipe(self, op, *args):
        """One pipe operation; a broken pipe is a crashed worker."""
        try:
            return op(*args)
        except (EOFError, OSError) as exc:
            self._mark_dead(f"pipe failed: {exc}")
            raise WorkerCrashed(
                f"worker {self.index} pipe broke on {op.__name__} "
                f"(exitcode {self.proc.exitcode})") from exc

    def _check_worker(self, deadline: float, limit: float) -> None:
        """Between poll periods: is the worker there, is there time."""
        if not self.proc.is_alive():
            self._mark_dead("process died")
            raise WorkerCrashed(
                f"worker {self.index} died mid-request "
                f"(exitcode {self.proc.exitcode})")
        if time.monotonic() > deadline:
            self._mark_dead("request timeout", kill=True)
            raise WorkerTimeout(
                f"worker {self.index} exceeded {limit}s; killed")

    def _await_reply(self, seq: int, deadline: float, limit: float):
        """Wait for reply ``seq``: its pipe message, or None when the
        reply descriptor in the mailbox is the whole answer."""
        words, conn = self._words, self.conn
        if not _spin(words, _REP_SEQ, seq - 1):
            self.parks += 1
            words[_PARENT_PARKED] = 1
            try:
                while words[_REP_SEQ] != seq:
                    readable = self._pipe(conn.poll, _POLL_SECONDS)
                    if words[_REP_SEQ] == seq:
                        break
                    if readable:
                        # Readable before the doorbell moved: a wake
                        # token (a reply message follows its doorbell).
                        self._pipe(conn.recv_bytes)
                    else:
                        self._check_worker(deadline, limit)
                        if words[_WORKER_PARKED]:
                            # Its wake was lost to the flag/word race.
                            self._pipe(conn.send_bytes, b"")
            finally:
                words[_PARENT_PARKED] = 0
        if words[_REP_STATUS] == _ST_SLAB:
            return None
        while True:
            if self._pipe(conn.poll, _POLL_SECONDS):
                data = self._pipe(conn.recv_bytes)
                if data:                       # else a stray wake token
                    self.pipe_received += 1
                    return pickle.loads(data)
            elif not self._pipe(conn.poll, 0):
                self._check_worker(deadline, limit)

    def _exchange(self, timeout, msg=None, desc=()):
        """Publish one request — control message ``msg`` over the pipe,
        or slab descriptor ``desc`` in the mailbox — and await its
        reply; raises on crash/timeout."""
        limit = timeout if timeout is not None else self.request_timeout
        deadline = time.monotonic() + limit
        with self.lock:
            if self.dead is not None:
                raise WorkerCrashed(
                    f"worker {self.index} is dead ({self.dead})")
            words, buf = self._words, self._shm.buf
            if msg is None:
                _REQ.pack_into(buf, _REQ_AT, _OP_INFER, *desc)
            else:
                words[_REQ_OP] = _OP_PIPE
            seq = self._seq = self._seq + 1
            words[_REQ_SEQ] = seq
            if msg is not None:
                # After the doorbell: a spinning worker reads it at
                # once, a parked one is woken by the message itself.
                self._pipe(self.conn.send, msg)
                self.pipe_sent += 1
            elif words[_WORKER_PARKED]:
                self._pipe(self.conn.send_bytes, b"")
            reply = self._await_reply(seq, deadline, limit)
            if reply is None:
                rep = _REP.unpack_from(buf, _REP_AT)
                reply = ("ok", rep[5:5 + rep[1]], {
                    "forward_wall": rep[13], "forward_device": rep[14],
                    "transfer_sim": rep[15], "compiled": bool(rep[2]),
                    "dtype": _WIRE_NAMES[rep[3]], "lanes": rep[4]})
            self.requests += 1
        if reply[0] == "err":
            raise WorkerError(f"worker {self.index}: {reply[1]}: {reply[2]}")
        return reply

    def request(self, msg, timeout: float | None = None):
        """Send control message ``msg`` and await the reply."""
        return self._exchange(timeout, msg=msg)

    def forward(self, model: int, ring: int, offset: int, cap: int,
                code: int, shape: tuple, timeout: float | None = None):
        """One slab forward through the mailbox.

        ``model`` and ``ring`` are registered ids, ``offset``/``cap``
        the leased slot in float64 words, ``code`` the wire dtype.
        Returns ``("ok", output shape, timing)`` — the outputs are in
        the slab — or the worker's pickled ``("big", outputs, timing)``
        when they did not fit.
        """
        rank = len(shape)
        return self._exchange(timeout, desc=(
            model, ring, offset, cap, code, rank, *shape, *_PAD[rank:]))

    # -- registration ------------------------------------------------------
    def model_id(self, path) -> int:
        """The id ``path`` travels under (registered on first use;
        keyed as passed, so a warm call converts no ``Path``)."""
        model = self._models.get(path)
        if model is None:
            model = next(self._ids)
            self.request(("model", model, str(path)))
            self._models[path] = model
        return model

    def attach_ring(self, name: str) -> int:
        """Have the worker map slab segment ``name``; returns its id."""
        ring = next(self._ids)
        self.request(("ring", ring, name))
        return ring

    def detach_ring(self, ring: int) -> None:
        """Have the worker drop a ring's mapping and every view over
        it (best effort: a dead worker holds nothing)."""
        if self.alive:
            try:
                self.request(("unring", ring))
            except (WorkerCrashed, WorkerTimeout, WorkerError):
                pass

    def pull_samples(self) -> list:
        """Refresh (best-effort) and return the worker's obs samples."""
        if self.alive:
            try:
                self.last_samples = self.request(("counters",))[1]
            except (WorkerCrashed, WorkerTimeout, WorkerError):
                pass
        return self.last_samples

    def _release(self) -> None:
        """Close the pipe end and unlink the mailbox.  Idempotent."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self._words is not None:
            self._words.release()
            self._words = None
            self._shm.close()
            self._shm.unlink()

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
        self._release()

    def __repr__(self):
        state = self.dead or ("alive" if self.proc.is_alive() else "exited")
        return f"WorkerHandle(index={self.index}, {state})"


# ---------------------------------------------------------------------------
# Engine adapters (parent side)
# ---------------------------------------------------------------------------
class RemoteEngineClient:
    """Executes engine forwards in a worker via the slab protocol.

    One client per adopted region (clients sharing a worker serialize
    on its handle lock).  The client's ring is registered with the
    worker when it is first used and unregistered when it is replaced
    or closed, so the worker holds exactly the live rings.
    """

    def __init__(self, handle: WorkerHandle, *,
                 min_slot_floats: int = _MIN_SLOT_FLOATS,
                 timeout: float | None = None, invalidate_hook=None):
        self.handle = handle
        self.min_slot_floats = min_slot_floats
        self.timeout = timeout
        #: Broadcast invalidations pool-wide (set by the backend so a
        #: hot-swap reaches every worker, not just this client's).
        self.invalidate_hook = invalidate_hook
        self._ring: SlabRing | None = None
        self._ring_id: int | None = None   # None until the worker has it
        self.requests = 0
        self.pickle_fallbacks = 0    # oversized outputs that pickled
        self.bytes_shipped = 0       # payload bytes in + out

    def _ensure_ring(self, floats_needed: int) -> SlabRing:
        ring = self._ring
        if ring is not None and ring.slot_floats >= floats_needed:
            return ring
        grown = max(floats_needed, self.min_slot_floats,
                    2 * ring.slot_floats if ring is not None else 0)
        self.close()                 # affinity: no leases outstanding
        ring = self._ring = SlabRing(grown)
        return ring

    def infer(self, model_path, inputs, dtype=None) -> tuple:
        """One remote forward; returns ``(outputs, timing dict)``.

        ``dtype=np.float32`` negotiates the narrow wire format: inputs
        ship (and outputs return) as float32 in the same float64-sized
        slab slots, halving the bytes crossing the process boundary,
        and the worker serves its narrowed compiled plan.
        """
        dt = np.dtype(dtype) if dtype is not None else _WIRE_DTYPES[0]
        x = np.ascontiguousarray(inputs, dtype=dt)
        code = _DTYPE_CODES.get(dt)
        if code is None or x.ndim > _MAX_RANK:
            raise ValueError(
                f"the slab mailbox carries float64/float32 batches of "
                f"rank <= {_MAX_RANK}, not {dt.name} of shape {x.shape}")
        model = self.handle.model_id(model_path)
        # Ring capacity is addressed in float64 words; round the
        # payload up so narrow dtypes pack without spilling.
        ring = self._ensure_ring((x.nbytes + 7) // 8)
        if self._ring_id is None:
            self._ring_id = self.handle.attach_ring(ring.name)
        slot = ring.lease(self.timeout)
        view = ring.slot(slot)
        try:
            tview = view if code == 0 else view.view(dt)
            tview[:x.size] = x.reshape(-1)
            reply = self.handle.forward(
                model, self._ring_id, slot * ring.slot_floats,
                ring.slot_floats, code, x.shape, self.timeout)
            if reply[0] == "big":
                out = reply[1]
                self.pickle_fallbacks += 1
            else:
                shape = reply[1]
                out = np.array(tview[:math.prod(shape)]).reshape(shape)
            self.bytes_shipped += x.nbytes + out.nbytes
        finally:
            # Drop the slab view before releasing: a raised WorkerCrashed
            # keeps this frame alive via its traceback, and a lingering
            # view would pin the segment mapping past ring.close().
            view = tview = None
            ring.release(slot)
        self.requests += 1
        # Parent-side SURROGATE fault seam: the worker ran a clean
        # forward, but injected faults must still poison/raise here so
        # the resilience harness exercises process backends.
        fault = _faults.fire(_faults.SURROGATE)
        if fault is not None:
            out = _faults.apply_surrogate_fault(fault, out)
        return out, reply[2]

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
        """Unregister and unlink the ring.  Idempotent."""
        if self._ring is not None:
            if self._ring_id is not None:
                self.handle.detach_ring(self._ring_id)
                self._ring_id = None
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
    """Engine whose forward is a slab round trip to a worker process.

    Immediate as is — auto-regressive loops must not gain deferred
    delivery; behind a :class:`~repro.runtime.batch.BatchedInferenceEngine`
    only the one fused ``(B, *features)`` forward ships across.
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
