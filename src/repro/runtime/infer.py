"""Inference backend: model loading, caching, and device execution.

Mirrors §IV-B's inference path: the first invocation loads the model
file given by the ``model(...)`` clause (then caches it, "if it has not
already been loaded"); every invocation moves the composed input tensor
to the device, evaluates the network, and moves the output back for the
bridge to scatter.  Here the device is simulated: the two moves are
charged to its clock, not performed (DESIGN.md §2), and the engine's
one copy is the one the ownership rule needs (DESIGN.md §1).

Two forward paths exist.  The default is the **compiled fast path**:
the engine keeps a per-model cache of :class:`repro.nn.CompiledPlan`
objects (keyed by model identity) and runs the flat NumPy plan —
no autodiff ``Tensor`` wrappers, fused affine+activation, preallocated
scratch.  Models with layers the planner cannot lower fall back to the
original graph path under ``no_grad``.
"""

from __future__ import annotations

import os
import time
import weakref
from pathlib import Path

import numpy as np

from ..device import Device
from ..nn import load_model, no_grad
from ..nn.compile import UnsupportedLayerError, compile_inference
from ..nn.layers import Module
from ..nn.tensor import Tensor
from ..resilience import faults as _faults

__all__ = ["InferenceEngine", "ModelCache"]

#: ``np.dtype.name`` is computed on every access; plans run in one of
#: these two dtypes.
_DTYPE_NAMES = {np.dtype(np.float64): "float64",
                np.dtype(np.float32): "float32"}


class ModelCache:
    """Path-keyed cache of deserialized models (one load per path).

    Models are keyed on the *resolved* path, so differently-spelled
    paths of one file share an entry.  ``Path.resolve()`` costs an
    ``lstat`` per path component, which on a small-batch deploy loop
    is a fifth of the invocation — so the spelling → resolved-key
    mapping is memoised and dropped at the hot-swap points
    (:meth:`invalidate`, :meth:`put`, :meth:`clear`), the only moments
    the protocol lets the file behind a path change identity.
    Relative spellings depend on the working directory and are
    resolved on every call.

    :attr:`epoch` counts those hot-swap points.  A consumer that keeps
    models it resolved earlier (a fleet's slab rows) re-resolves them
    only when the epoch moved since it last did; it must read the epoch
    *before* resolving, so a swap landing meanwhile is seen next time.
    """

    def __init__(self):
        self._models: dict[str, Module] = {}
        self._keys: dict[str, str] = {}       # absolute spelling -> resolved
        self.epoch = 0

    def key(self, path) -> str:
        """The resolved-path key ``path`` is cached under."""
        raw = str(path)
        key = self._keys.get(raw)
        if key is None:
            key = str(Path(raw).resolve())
            if os.path.isabs(raw):
                self._keys[raw] = key
        return key

    def get(self, path) -> Module:
        key = self.key(path)
        model = self._models.get(key)
        if model is None:
            model = load_model(path)
            self._models[key] = model
        return model

    def put(self, path, model: Module) -> None:
        """Pre-seed the cache (used by in-memory search pipelines)."""
        self._keys.clear()
        self._models[self.key(path)] = model
        self.epoch += 1                       # after the entry changed

    def invalidate(self, path) -> bool:
        """Drop one path's cached model so the next ``get`` reloads it.

        The hot-swap primitive: after a retrained model file is moved
        into place (``os.replace``), invalidating the entry makes every
        engine sharing this cache pick up the new weights on its next
        inference — no restart, no full cache clear.  Every memoised
        spelling is re-resolved afterwards, so a retargeted symlink is
        followed to its new file.  Returns whether an entry was
        dropped.
        """
        self._keys.clear()
        dropped = self._models.pop(self.key(path), None) is not None
        self.epoch += 1
        return dropped

    def clear(self) -> None:
        self._keys.clear()
        self._models.clear()
        self.epoch += 1

    def __len__(self):
        return len(self._models)


class InferenceEngine:
    """Runs surrogate inference on a simulated device."""

    #: Spellings :attr:`_memo` keeps before it is cleared.
    _MEMO_LIMIT = 64

    def __init__(self, device: Device | None = None,
                 cache: ModelCache | None = None):
        self.device = device if device is not None else Device()
        # Not ``cache or ...``: an empty ModelCache is falsy (__len__),
        # which would silently drop a shared-but-cold cache.
        self.cache = cache if cache is not None else ModelCache()
        #: (id(model), dtype) -> (weakref to model, CompiledPlan | None).
        #: ``None`` records a model whose layers have no lowering, so
        #: the graph fallback is not re-attempted every call.  Keying on
        #: dtype keeps a float32 and a float64 plan of the same model
        #: cached side by side without scratch/constant mixing.
        self._plans: dict[tuple, tuple] = {}
        #: (model-path spelling, dtype) -> (cache epoch, weakref to the
        #: CompiledPlan that spelling served): :meth:`infer`'s warm hit.
        #: Valid while the cache's epoch stands (no hot swap since) and
        #: the plan is alive and not stale; never holds a model, so a
        #: swapped-out one dies and the next miss drops its plan.
        #: Absolute spellings only, as :meth:`ModelCache.key` memoises
        #: them.
        self._memo: dict = {}
        #: Timing of the most recent inference: ``forward_wall`` is the
        #: measured host time of the dense forward pass;
        #: ``forward_device`` is its device-equivalent
        #: (:meth:`repro.device.Device.dense_time`), of the row pieces'
        #: summed busy time when ``lanes`` > 1 ran it; ``transfer_sim``
        #: is the modeled H2D+D2H cost; ``compiled`` says which forward
        #: path ran.
        self.last_timing: dict = {}

    # -- compiled-plan cache ---------------------------------------------
    def plan_for(self, model: Module, dtype=np.float64):
        """Return the cached :class:`CompiledPlan` for ``model``.

        Compiles on first sight, recompiles when the plan went stale
        (parameter arrays rebound), and returns ``None`` when the model
        has unsupported layers.  A miss first drops the entries whose
        model has died, so a swapped-out model's plan frees its scratch
        before its successor allocates: every plan's scratch is its own.

        ``dtype=np.float32`` compiles a narrowed plan (cached under its
        own key).  Every in-tree layer narrows; a model the narrower
        refuses — one with a step that declares no tensors, such as an
        out-of-tree lowering — falls back to the float64 plan, which
        is then cached under the float32 key so the refusal is not
        re-discovered on every call.
        """
        dtype = np.dtype(dtype)
        key = (id(model), dtype)
        entry = self._plans.get(key)
        if entry is not None:
            ref, plan = entry
            if ref() is model and (plan is None or not plan.stale()):
                return plan
        # No lock: threads that miss together each compile a plan of
        # their own; a lost insert or drop costs one more compile.
        for k, (ref, _) in list(self._plans.items()):
            if ref() is None:
                self._plans.pop(k, None)
        try:
            plan = compile_inference(model, dtype=dtype)
        except UnsupportedLayerError:
            # Narrowing refused: serve the float64 plan instead.
            plan = self.plan_for(model) if dtype != np.float64 else None
        self._plans[key] = (weakref.ref(model), plan)
        return plan

    def warmup(self, model_path, dtype=None) -> Module:
        """Load + precompile a model so the first timed call is hot."""
        model = self.cache.get(model_path)
        self.plan_for(model, dtype if dtype is not None else np.float64)
        return model

    # -- inference -------------------------------------------------------
    def infer(self, model_path, inputs: np.ndarray,
              dtype=None) -> np.ndarray:
        """Full inference round trip: H2D charge, forward, D2H charge.

        ``inputs`` is batch-major ``(B, *features)`` and only borrowed
        for the call; the return value keeps the model's output shape
        ``(B, *out_features)`` and is the caller's (DESIGN.md §1).
        ``dtype=np.float32`` runs the narrowed compiled plan when the
        model supports it (float64 otherwise).  A warm call of a known
        spelling skips the cache and plan look-ups (:attr:`_memo`).
        """
        memo = self._memo.get((model_path, dtype))
        if memo is not None and memo[0] == self.cache.epoch:
            plan = memo[1]()
            if plan is not None and not plan.stale():
                return self._forward(plan, None, inputs)
        epoch = self.cache.epoch              # before resolving (ModelCache)
        model = self.cache.get(model_path)
        plan = self.plan_for(model,
                             dtype if dtype is not None else np.float64)
        if plan is not None and os.path.isabs(model_path):
            if len(self._memo) >= self._MEMO_LIMIT:
                self._memo.clear()
            self._memo[model_path, dtype] = (epoch, weakref.ref(plan))
        return self._forward(plan, model, inputs)

    def infer_with_model(self, model: Module, inputs: np.ndarray,
                         dtype=None) -> np.ndarray:
        return self._forward(
            self.plan_for(model, dtype if dtype is not None else np.float64),
            model, inputs)

    def _forward(self, plan, model, inputs) -> np.ndarray:
        """The one forward body: ``plan`` (the graph of ``model`` when
        ``None``) on ``inputs``, with its transfers, timing and fault
        seam (fired only while an injector is installed)."""
        device = self.device
        sim_before = device.clock.simulated
        if type(inputs) is not np.ndarray:    # borrowed: read, never kept
            inputs = np.asarray(inputs)
        device.to_device(inputs)

        start = time.perf_counter()
        lanes, busy = 1, None
        if plan is not None:
            out = plan(inputs)
            if plan.last_split is not None:     # row lanes (DESIGN.md §2)
                (lanes, busy), plan.last_split = plan.last_split, None
        else:
            model.eval()
            with no_grad():
                out = model(Tensor(inputs)).numpy()
        forward_wall = time.perf_counter() - start
        device.kernel_launches += 1

        device.to_host(out)
        # The one copy, made where ownership is decided (DESIGN.md §1):
        # ``out`` is plan scratch, valid only until the next forward at
        # this batch size — or, from a plan with no compute step
        # (Flatten, Identity), a view of ``inputs``, which may itself
        # be a view of application memory.  What leaves is the caller's.
        result = out.copy()
        self.last_timing = {
            "forward_wall": forward_wall,
            "forward_device": device.dense_time(
                forward_wall if busy is None else busy),
            "lanes": lanes,
            "transfer_sim": device.clock.simulated - sim_before,
            "compiled": plan is not None,
            "dtype": _DTYPE_NAMES[plan.dtype] if plan is not None
            else "float64",
        }
        # SURROGATE fault seam: with an active FaultInjector this forward
        # may raise or hand back NaN/Inf/garbage outputs, exactly like a
        # model poisoned mid-training or a device fault would.
        if _faults._ACTIVE is not None:
            fault = _faults.fire(_faults.SURROGATE)
            if fault is not None:
                result = _faults.apply_surrogate_fault(fault, result)
        return result

    def profile(self, model_path, inputs: np.ndarray) -> dict:
        """One instrumented forward with per-plan-step timings.

        Returns ``{"compiled", "steps", "total_seconds", "outputs"}``.
        On the compiled path ``steps`` holds one ``{"step", "seconds"}``
        entry per plan step (:meth:`CompiledPlan.profile
        <repro.nn.compile.CompiledPlan.profile>`); on the graph
        fallback it is a single whole-forward entry.  Diagnostic
        surface for ``repro stats`` — slower than :meth:`infer`, and
        it bypasses the transfer simulation and fault seams.
        """
        model = self.cache.get(model_path)
        plan = self.plan_for(model)
        x = np.asarray(inputs)
        start = time.perf_counter()
        if plan is not None:
            out, steps = plan.profile(x)
        else:
            model.eval()
            with no_grad():
                out = model(Tensor(x)).numpy()
            steps = [{"step": "graph forward",
                      "seconds": time.perf_counter() - start}]
        return {
            "compiled": plan is not None,
            "steps": steps,
            "total_seconds": time.perf_counter() - start,
            "outputs": out.copy(),            # plan scratch otherwise
        }
