"""Compiled inference fast path: ``Module`` -> flat NumPy step plan.

The graph path (:meth:`Module.__call__`) builds an autodiff ``Tensor``
per intermediate even under ``no_grad`` — dozens of Python-level
allocations per forward.  For deployed surrogates that is pure
overhead: inference is a fixed pipeline of dense kernels over known
weights.  :func:`compile_inference` lowers a model **once** through
the shared plan IR (:mod:`repro.nn.plan`) and wraps the forward steps
in a :class:`CompiledPlan`:

* **folded neighbours**: a GEMM step (``Linear``, ``Conv1d``/``Conv2d``)
  absorbs the activation after it, a preceding ``Standardize`` as a
  prologue into its own scratch and following ``CropPad2d`` /
  ``Destandardize`` as an in-place epilogue, in graph order; frozen
  constants are per-geometry snapshots at full extent, never adopted
  across a recompile (``DESIGN.md`` §5);
* **preallocated scratch**: per-step buffers are reused across calls
  (keyed by batch size), so steady-state inference performs no
  Python-level array allocation in the affine and convolution steps
  (conv: pad, channel-major im2col columns and the NCHW output the
  GEMM writes; only pooling and a ``CropPad2d`` that pads still return
  fresh arrays);
* **zero Tensor wrappers**: the plan never touches the autodiff graph.

The per-layer emitters live in the :mod:`repro.nn.plan` lowering
registry, shared with :mod:`repro.nn.compile_train` — this module only
selects eval-mode semantics: dropout is identity and batch-norm uses
its running statistics.  The plan holds references to the model's
parameter arrays, so in-place optimizer updates flow through
automatically; rebinding a parameter (``load_state_dict``) flips
:meth:`CompiledPlan.stale` and callers recompile.  Plans carry the
model's structural fingerprint, letting callers (the engine's plan
cache) re-adopt warm scratch buffers across a same-structure recompile.

The returned array may be a scratch buffer owned by the plan — it is
valid until the next call with the same batch size; copy it to keep it.
"""

from __future__ import annotations

import numpy as np
from numpy import ndarray

from . import layers as L
from .plan import (FleetPlan, UnsupportedLayerError, _BodyWriter,
                   _compile_watch_check, _PlanBodies, fleet_fingerprint,
                   lower_model, structural_fingerprint)

__all__ = ["compile_inference", "compile_fleet_inference",
           "CompiledPlan", "FleetPlan", "fleet_fingerprint",
           "UnsupportedLayerError"]


class CompiledPlan:
    """A flat inference step plan emitted by :func:`compile_inference`.

    ``stale()`` is True when the plan no longer describes the model:
    it trips on rebinding of a watched array (``load_state_dict``) and
    on structural mutation of any ``Sequential`` in the walk
    (``append``, layer-list rebinding).  In-place value updates
    (optimizer steps) flow through the captured arrays and do **not**
    flip staleness.  In-place *replacement* of a layer at an existing
    index is the one mutation it cannot see.  One generated check
    (:func:`~repro.nn.plan._compile_watch_check`), cheap enough for an
    engine to run before every forward.

    A call runs the steps' closures one after another; an input
    ``(shape, dtype)`` the plan has served twice runs its generated
    straight-line body instead (:class:`~repro.nn.plan._PlanBodies`).
    """

    __slots__ = ("_steps", "_fns", "stale", "_keys", "_bodies", "n_layers",
                 "n_fused", "summary", "fingerprint", "dtype", "_cast",
                 "__weakref__")

    def __init__(self, steps, watch, struct_watch, n_layers, n_fused,
                 summary, fingerprint, dtype=np.float64):
        self._steps = tuple(steps)
        # Hot steps hand out specialized closures (constants bound,
        # scratch dict captured); the rest run their bound method.
        self._fns = tuple(step.inference_fn() or step.forward
                          for step in self._steps)
        self.stale = _compile_watch_check(watch, struct_watch)
        self._keys: set = set()        # batch sizes with live scratch
        self._bodies = _PlanBodies().own(self._steps)
        self.n_layers = n_layers
        self.n_fused = n_fused
        self.summary = tuple(summary)
        #: Structural digest of the lowered model (layer types, shapes,
        #: hyperparameters) plus the plan dtype when narrowed.  Equal
        #: fingerprints => interchangeable step/scratch layout.
        self.fingerprint = fingerprint
        #: Execution dtype of the plan's constants and scratch.
        self.dtype = np.dtype(dtype)
        # Narrowed plans cast the input once at entry; the float64
        # default keeps the historical float16-only coercion verbatim.
        self._cast = None if self.dtype == np.float64 else self.dtype

    def adopt_scratch(self, old: "CompiledPlan | None") -> bool:
        """Take over a same-fingerprint predecessor's scratch buffers.

        After a recompile that preserved the structure (hot-swap /
        ``load_state_dict``), the old plan's per-batch buffers have
        exactly the shapes this plan will allocate — adopting them
        keeps the first post-swap inference warm.  Frozen constants
        (``PlanStep._geoms``) are not adopted: they are this model's to
        re-materialise.  Both plans' bodies are dropped (they capture
        the buffers).  Returns whether the adoption happened.
        """
        if old is None or old is self or \
                old.fingerprint != self.fingerprint or \
                old.dtype != self.dtype or \
                len(old._steps) != len(self._steps):
            return False
        for mine, theirs in zip(self._steps, old._steps):
            if type(mine) is not type(theirs):
                return False
        for mine, theirs in zip(self._steps, old._steps):
            # In place: specialized step closures capture the dict.
            mine._bufs.update(theirs._bufs)
        self._keys = set(old._keys)
        self._bodies.clear()
        old._bodies.clear()
        return True

    def __call__(self, x) -> np.ndarray:
        if type(x) is ndarray:
            try:
                body = self._bodies[x.shape, x.dtype]
            except KeyError:
                body = None
            if body is not None:
                return body(x)
        return self._serve(x)

    def _enter(self, x) -> tuple:
        """``x`` at the plan's dtype and its batch key; past 16 batch
        sizes every step's scratch (and every body) is dropped."""
        if self._cast is not None:
            if x.dtype != self._cast:
                x = x.astype(self._cast)
        elif x.dtype == np.float16:    # mirror Tensor's dtype coercion
            x = x.astype(np.float64)
        key = x.shape[0] if x.ndim else 1
        if key not in self._keys:
            if len(self._keys) > 16:
                for step in self._steps:
                    step.clear()
                self._bodies.clear()
                self._keys.clear()
            self._keys.add(key)
        return x, key

    def _serve(self, x) -> np.ndarray:
        """The steps' closures, one after another; the second time an
        input geometry is served here, its body is generated."""
        x = np.asarray(x)
        geometry = x.shape, x.dtype
        h, key = self._enter(x)
        cast = h is not x
        xs = []
        for fn in self._fns:
            xs.append(h)
            h = fn(h, key)
        if geometry not in self._bodies:
            self._bodies[geometry] = None
        else:
            w = _BodyWriter()
            if cast:
                w.line(f"x = x.astype({w.ref(self.dtype, 'd')})")
            self._bodies[geometry] = w.replay(self._steps, self._fns, xs,
                                              key)
        return h

    def profile(self, x) -> tuple:
        """Run the plan once, timing each step individually.

        Returns ``(output, timings)`` where ``timings`` is a list of
        ``{"step", "seconds"}`` dicts aligned with :attr:`summary`.
        The per-step clock reads make this slower than :meth:`__call__`
        — it is a diagnostic surface (``repro stats`` / the
        observability benchmarks), not the serving path.
        """
        import time
        x, key = self._enter(np.asarray(x))
        timings = []
        for label, fn in zip(self.summary, self._fns):
            start = time.perf_counter()
            x = fn(x, key)
            timings.append({"step": label,
                            "seconds": time.perf_counter() - start})
        return x, timings

    def __repr__(self):
        return (f"CompiledPlan(layers={self.n_layers}, "
                f"steps={len(self._steps)}, fused={self.n_fused})")


def compile_inference(model: L.Module, dtype=np.float64) -> CompiledPlan:
    """Compile ``model`` into a flat NumPy inference plan.

    ``dtype`` is the plan's: every step's declared tensors are bound at
    it as the model is lowered (:meth:`~repro.nn.plan.LoweringContext.emit`).
    The float64 default binds the live arrays themselves (write-through,
    bitwise the graph path).  ``dtype=np.float32`` emits a *narrowed*
    plan: one rounded copy of each tensor (``1/std`` computed in float64
    first), the input cast once at entry, every kernel running natively
    in float32 — roughly half the memory traffic on the GEMM-bound
    shapes — and the dtype in its fingerprint.

    Raises :class:`UnsupportedLayerError` for layers without a lowering
    (custom modules outside the serialized zoo) — and, narrowed, for a
    step that does not declare its tensors — callers fall back to the
    graph path / the float64 plan; ``ValueError`` for other dtypes.
    """
    ctx, struct_watch, n_layers = lower_model(model, False, dtype)
    extra = ("infer",) if ctx.dtype == np.float64 else ("infer", "f32")
    return CompiledPlan(ctx.steps, ctx.watch, struct_watch, n_layers,
                        ctx.n_fused, ctx.summary,
                        structural_fingerprint(model, extra=extra),
                        dtype=ctx.dtype)


def compile_fleet_inference(models, dtype=np.float64) -> FleetPlan:
    """Compile K same-fleet-fingerprint models into one stacked plan.

    Stacked outputs are bitwise-equal to each member's own
    :func:`compile_inference` forward at the same ``dtype``;
    ``dtype=np.float32`` stacks a narrowed slab (member tensors rounded
    on the row copies, as the member's own plan rounds them).  Raises
    :class:`UnsupportedLayerError` on structurally mixed groups or
    layers whose step has no stacked form (callers keep per-model
    plans).
    """
    return FleetPlan(models, dtype=dtype)
