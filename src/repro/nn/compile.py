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
  constants are per-geometry snapshots at full extent (``DESIGN.md``
  §5);
* **preallocated scratch**: per-step buffers are reused across calls
  (keyed by batch size; by lane for row blocks, ``DESIGN.md`` §4), so
  steady-state inference performs no Python-level array allocation in
  the affine and convolution steps (conv: pad, channel-major im2col
  columns and the NCHW output the GEMM writes; only pooling and a
  ``CropPad2d`` that pads still return fresh arrays);
* **zero Tensor wrappers**: the plan never touches the autodiff graph;
* **one generated body per input geometry**: the steps' ``forward``
  replayed straight-line from the second call at it.

The per-layer emitters live in the :mod:`repro.nn.plan` lowering
registry, shared with :mod:`repro.nn.compile_train` — this module only
selects eval-mode semantics: dropout is identity and batch-norm uses
its running statistics.  The plan holds references to the model's
parameter arrays, so in-place optimizer updates flow through
automatically; rebinding a parameter (``load_state_dict``) flips
:meth:`CompiledPlan.stale` and callers recompile.

The returned array may be owned by the plan — it is valid until the
next call with the same input shape and dtype; copy it to keep it.
"""

from __future__ import annotations

import numpy as np
from numpy import ndarray

from . import layers as L
from .plan import (FleetPlan, UnsupportedLayerError, _compile_watch_check,
                   _PlanBodies, fleet_fingerprint, lower_model)

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

    A call runs the steps' ``forward`` one after another; an input
    ``(shape, dtype)`` the plan has served twice runs its generated
    straight-line body instead (:class:`~repro.nn.plan._PlanBodies`),
    which replays those forwards; a large batch runs as row blocks dealt
    to row lanes from its first call (DESIGN.md §4).
    """

    __slots__ = ("_steps", "stale", "_keys", "_bodies", "n_layers",
                 "n_fused", "summary", "dtype", "_cast", "last_split",
                 "__weakref__")

    def __init__(self, steps, watch, struct_watch, n_layers, n_fused,
                 summary, dtype=np.float64):
        self._steps = tuple(steps)
        self.stale = _compile_watch_check(watch, struct_watch)
        self._keys: set = set()        # batch sizes with live scratch
        self._bodies = _PlanBodies().own(self._steps)
        self.n_layers = n_layers
        self.n_fused = n_fused
        self.summary = tuple(summary)
        #: Execution dtype of the plan's constants and scratch.
        self.dtype = np.dtype(dtype)
        # Narrowed plans cast the input once at entry; the float64
        # default keeps the historical float16-only coercion verbatim.
        self._cast = None if self.dtype == np.float64 else self.dtype
        #: ``(lanes, busy seconds)`` of a split call until the engine reads it.
        self.last_split = None

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
        """The dtype ``x`` is cast to on entry (None: it is not) and its
        batch key; past 16 batch sizes every step's scratch (and every
        body) is dropped."""
        cast = self._cast
        if cast is None:               # mirror Tensor's dtype coercion
            cast = self.dtype if x.dtype == np.float16 else None
        elif x.dtype == cast:
            cast = None
        key = x.shape[0] if x.ndim else 1
        if key not in self._keys:
            if len(self._keys) > 16:
                for step in self._steps:
                    step.clear()
                self._bodies.clear()
                self._keys.clear()
            self._keys.add(key)
        return cast, key

    def _serve(self, x) -> np.ndarray:
        """The steps' forwards, one after another, or row blocks
        (:meth:`~repro.nn.plan._PlanBodies.split_or_serve`)."""
        x = np.asarray(x)
        cast, key = self._enter(x)
        return self._bodies.split_or_serve(self._steps, x, cast, key,
                                            self)

    def profile(self, x) -> tuple:
        """Run the plan once, timing each step individually.

        Returns ``(output, timings)`` where ``timings`` is a list of
        ``{"step", "seconds"}`` dicts aligned with :attr:`summary`.
        The per-step clock reads make this slower than :meth:`__call__`
        — it is a diagnostic surface (``repro stats`` / the
        observability benchmarks), not the serving path.
        """
        import time
        x = np.asarray(x)
        cast, key = self._enter(x)
        x = x if cast is None else x.astype(cast)
        timings = []
        for label, step in zip(self.summary, self._steps):
            start = time.perf_counter()
            x = step.forward(x, key)
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
    shapes.

    Raises :class:`UnsupportedLayerError` for layers without a lowering
    (custom modules outside the serialized zoo) — and, narrowed, for a
    step that does not declare its tensors — callers fall back to the
    graph path / the float64 plan; ``ValueError`` for other dtypes.
    """
    ctx, struct_watch, n_layers = lower_model(model, False, dtype)
    return CompiledPlan(ctx.steps, ctx.watch, struct_watch, n_layers,
                        ctx.n_fused, ctx.summary, dtype=ctx.dtype)


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
