"""Unified plan IR: one step family for single models and stacked fleets.

``compile_inference``, ``compile_training`` and the fleet plans are
each "lower the model(s) once, then run the step list"; this module is
the pipeline they share:

* **Step IR** — a compiled plan is a flat list of :class:`PlanStep`
  objects over raw ndarrays.  Every step owns its per-batch-size
  scratch table and implements ``forward(x, n)``; training-capable
  steps also implement ``backward(g, n, need_gx)`` and write parameter
  gradients straight into views of the plan's gradient buffer.
* **Member axis** — each layer's forward/backward exists once.  A step
  built with ``k`` runs K structurally identical members at a time over
  a leading member axis (``(K, B, in) @ (K, in, out)`` GEMMs, per-member
  RNG streams and running statistics); built without, it is one
  unstacked model, and the hot steps keep their 2-D ``np.dot`` kernels.
  Steps *declare* their tensors and are *bound* to them at the plan's
  dtype (float64, or float32 for a narrowed plan) — to the live layer
  arrays or one rounded copy each for one model, to ``(K, *shape)``
  views of a flat weight slab for :class:`FleetPlan` /
  :class:`~repro.nn.compile_train.FleetTrainingPlan` — so the
  batch-reduction axis, the weight broadcast shape and the dtype are
  bind-time state.  Member ``k``'s slice of every stacked buffer is
  computed with exactly the ops its own plan would run: fleet rows are
  bitwise-equal to member plans at either dtype.  See
  :class:`PlanStep`.
* **Lowering registry** — each layer type registers exactly one
  ``lower(layer, ctx)`` entry (:func:`register_lowering`).  The
  :class:`LoweringContext` tells the lowering whether it is emitting
  for inference or training (``ctx.training``), hands it the K peer
  layers at its cursor (``ctx.peers()``, a list of one for a single
  model) and binds what it emits (:meth:`LoweringContext.emit`, the
  one binding rule); one fold pass over the emitted list
  (:func:`_fold`) then merges elementwise neighbours into the GEMM
  steps.  :func:`lower_fleet` is the same loop as :func:`lower_model`
  over K models.  A stacked or narrowed lowering refuses a step that
  does not declare its tensors (a stacked one also needs ``k``, which
  conv, pool, crop/pad and recurrent steps do not take); callers keep
  the float64 single-model plan.  Lowerings for the
  :mod:`repro.nn.layers` zoo live below; recurrent layers register
  theirs from :mod:`repro.nn.recurrent`, so out-of-tree layers plug
  into every compiler with one entry.
* **Structural fingerprints** — :func:`structural_fingerprint` digests
  a model's layer/parameter structure (shapes, hyperparameters — not
  weight values).  Training plans carry it so callers can tell
  "recompiled, same structure" (hot-swap, ``load_state_dict``) from
  "different model": fused-optimizer moments survive the former (warm
  restarts), and the :class:`~repro.nn.Trainer` compile-failure latch
  is keyed on it.  :func:`fleet_fingerprint` is the grouping key for
  fleets.

Numerical contract: training-mode steps replay the autodiff graph's
exact op sequence (same formulas, same association where it matters),
so compiled gradients match the graph to <= 1e-10; inference-mode steps
match the eval-mode graph path to the same tolerance as before.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import math
import os
import threading
import time
import types
import weakref

import numpy as np

from ..codegen import generate
from . import functional as F
from . import layers as L

__all__ = [
    "UnsupportedLayerError", "PlanStep", "LoweringContext",
    "register_lowering", "lowering_for", "lower_model",
    "structural_fingerprint", "loss_token",
    "lower_fleet", "fleet_fingerprint", "FleetPlan",
]


class UnsupportedLayerError(TypeError):
    """A layer has no compiled lowering; callers fall back to the graph."""


# ----------------------------------------------------------------------
# Structural fingerprints
# ----------------------------------------------------------------------

def _describe(module, out: list, skip=()) -> None:
    out.append(type(module).__name__)
    for name, value in vars(module).items():
        if name == "training" or name.startswith("_"):
            continue
        if skip and any(isinstance(module, t) and name == a
                        for t, a in skip):
            out.append(f"{name}=*")
            continue
        if isinstance(value, L.Parameter):
            out.append(f"{name}:{value.data.shape}:{value.data.dtype}")
        elif isinstance(value, L.Module):
            out.append(f"{name}<")
            _describe(value, out, skip)
            out.append(">")
        elif isinstance(value, np.ndarray):
            # Constants (Standardize stats, BN running stats): shape
            # only — values are captured by reference, not structure.
            out.append(f"{name}:array{value.shape}")
        elif isinstance(value, (bool, int, float, str)):
            out.append(f"{name}={value!r}")
        elif isinstance(value, (list, tuple)):
            out.append(f"{name}[")
            for item in value:
                if isinstance(item, L.Module):
                    _describe(item, out, skip)
            out.append("]")
    out.append(";")


def _fingerprint(model: L.Module, extra, skip=()) -> str:
    parts: list = []
    _describe(model, parts, skip)
    parts.extend(str(e) for e in extra)
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


def structural_fingerprint(model: L.Module, extra=()) -> str:
    """Digest of the model's *structure*: layer types, parameter shapes
    and scalar hyperparameters — everything that determines a compiled
    plan's step sequence and flat-buffer layout, and nothing that an
    optimizer step or ``load_state_dict`` changes.  Two models with
    equal fingerprints lower to interchangeable plans (same scratch
    shapes, same gradient layout), which is what makes warm-restarting
    optimizer moments across a recompile safe.
    """
    return _fingerprint(model, extra)


#: Per-member-tunable attributes masked out of fleet fingerprints:
#: members of one fleet may differ here without changing the stacked
#: step sequence or any buffer layout.
_FLEET_FINGERPRINT_MASK = ((L.Dropout, "p"),)


def fleet_fingerprint(model: L.Module, extra=()) -> str:
    """:func:`structural_fingerprint` with per-member-tunable scalar
    hyperparameters masked (currently ``Dropout.p``): two models whose
    fleet fingerprints agree lower to the *same* stacked step sequence
    with the same slab layout, even though their dropout rates — which
    the stacked kernel carries as a per-member ``(K, 1, 1)`` keep
    column — differ.  Everything else (layer types, parameter shapes,
    activation slopes, normalization eps) still participates, so a
    mismatch anywhere that would change a kernel refuses to group.
    """
    return _fingerprint(model, extra, _FLEET_FINGERPRINT_MASK)


def loss_token(loss_fn) -> str:
    """Stable identity token for a loss callable (plain or partial)."""
    if isinstance(loss_fn, functools.partial):
        inner = loss_token(loss_fn.func)
        kw = ",".join(f"{k}={v!r}"
                      for k, v in sorted((loss_fn.keywords or {}).items()))
        return f"partial({inner},{kw})"
    mod = getattr(loss_fn, "__module__", "")
    name = getattr(loss_fn, "__qualname__", None) or repr(loss_fn)
    return f"{mod}.{name}"


# ----------------------------------------------------------------------
# Step base + scratch helpers
# ----------------------------------------------------------------------

class PlanStep:
    """One plan step owning per-batch-size scratch buffers.

    ``forward(x, n)`` runs the step; training-capable steps also
    implement ``backward(g, n, need_gx)`` (``need_gx=False`` lets the
    first parameterized step skip its input-gradient GEMM).

    **Member axis.**  A step built with ``k`` runs K structurally
    identical members at a time: the stream it sees is ``(K, B, ...)``
    — leading extent 1 while the plan's input is still shared by every
    member, which broadcasts through ``np.matmul`` and the elementwise
    ufuncs — and every kernel runs on the ``[:n_active]`` row prefix
    (training plans swap early-stopped members to the tail with
    :meth:`swap_members`, so a finished candidate stops contributing
    compute).  ``k is None`` is one unstacked model and the stream is
    ``(B, ...)``.  Which of the two a step is comes from how its plan
    was lowered, never from a setting.

    **Declared tensors.**  :meth:`param_sources` / :meth:`const_sources`
    name the step's per-member arrays as ``(holder, attr)`` pairs, bound
    at the plan's dtype (:meth:`bind_params` / :meth:`bind_consts` /
    :meth:`bind_grads`; the rule is :meth:`LoweringContext.emit`'s):
    the live layer arrays (one rounded copy each, narrowed) and views
    of its flat gradient buffer for one model, ``(K, *shape)`` views of
    its slabs for a fleet — which is what makes a member hot-swap a
    single slab-row copy.  Only a step whose class sets
    :attr:`declared` joins a stacked or narrowed plan.
    :attr:`_geoms` holds, by batch size, a one-model inference
    forward's per-geometry constants (DESIGN.md §5).
    """

    __slots__ = ("_bufs", "_geoms", "training", "k", "n_active", "layers",
                 "pos", "bodies")
    #: Steps the fold pass merged into this one (see :class:`_GemmStep`).
    pro, epi = None, ()
    #: Whether :meth:`param_sources` / :meth:`const_sources` name every
    #: array the step reads (none, for a reshape or a fixed function).
    declared = False
    #: Whether the inference :meth:`forward` writes only fresh arrays
    #: (a row piece of a body may call it; DESIGN.md §4).
    rowwise = False

    def __init__(self, training: bool = False, k: int | None = None,
                 layers=()):
        self._bufs: dict = {}
        self._geoms: dict = {}
        self.training = training
        self.k = k
        self.n_active = k
        #: The K peer layers this step was lowered from, in row order.
        self.layers = list(layers)
        self.pos = -1            # flattened-layer index (set by emit)
        #: Weak reference to the :class:`_PlanBodies` of the plan running
        #: this step (``None`` outside one): the bodies capture the
        #: step's scratch, bound tensors and :attr:`_geoms`, so each
        #: writer of those drops them (:meth:`drop_bodies`).
        self.bodies = None

    def scratch(self, n: int) -> dict:
        s = self._bufs.get(n)
        if s is None:
            s = self._bufs[n] = {}
        return s

    def clear(self) -> None:
        self._bufs.clear()
        self._geoms.clear()
        self.drop_bodies()

    def drop_bodies(self) -> None:
        """Drop the running plan's generated bodies (a writer of what
        they capture ran)."""
        bodies = self.bodies() if self.bodies is not None else None
        if bodies:
            bodies.clear()

    # -- declared tensors -------------------------------------------------
    def param_sources(self) -> tuple:
        """Trainable tensors: a tuple (one entry per tensor, in
        ``named_parameters`` order) of K-tuples of ``(holder, attr)``
        pairs in row order.  Read via ``getattr`` so a hot-swap re-reads
        the live arrays."""
        return ()

    def const_sources(self) -> tuple:
        """Frozen per-member constants (standardize stats, running
        stats at inference), same layout as :meth:`param_sources`."""
        return ()

    @property
    def grad_params(self) -> tuple:
        """Parameters whose gradients this step writes, in declaration
        order: the single-model training plan's flat gradient layout."""
        return tuple(src[0][0] for src in self.param_sources())

    def bind_params(self, views) -> None:
        pass

    def bind_consts(self, views) -> None:
        pass

    def bind_grads(self, views) -> None:  # pragma: no cover - interface
        raise UnsupportedLayerError(
            f"{type(self).__name__} does not take gradients")

    def derive_const(self, si: int, arr):
        """The value bound for const tensor ``si`` read as ``arr``:
        ``arr`` itself, or a constant derived from it (the standardize
        reciprocal), computed from the live float64 array before any
        rounding to the plan's dtype."""
        return arr

    # -- member axis ------------------------------------------------------
    def _active(self, stack):
        """The active members' rows of a stacked tensor; one unstacked
        model's array as is."""
        return stack if self.k is None else stack[:self.n_active]

    def _rows(self, view):
        """A bound per-member tensor laid out against the stream: the
        live array as is for one model, ``(K, 1, *shape)`` for the
        ``(K, *shape)`` slab view."""
        return view if self.k is None else view[:, None]

    def _member_rows(self, x):
        """A still-shared stacked stream broadcast to one row per
        active member (kernels with per-member buffers need it);
        anything else unchanged."""
        if self.k is not None and x.shape[0] != self.n_active:
            return np.broadcast_to(x, (self.n_active,) + x.shape[1:])
        return x

    def swap_members(self, i: int, j: int) -> None:
        """Swap rows ``i``/``j`` of the per-member state the *step*
        owns (training compaction; slab rows are swapped by the plan)."""
        if self.layers:
            self.layers[i], self.layers[j] = self.layers[j], self.layers[i]

    def snapshot_row(self, i: int):
        """Step-owned per-member state to capture alongside a best-epoch
        parameter snapshot (BatchNorm running stats); ``None`` when the
        step has none."""
        return None

    def restore_row(self, i: int, snap) -> None:
        """Restore a :meth:`snapshot_row` capture into row ``i``."""

    def sync_members(self) -> None:
        """Write step-owned per-member state back into the member
        layers (end of stacked training)."""

    # -- execution --------------------------------------------------------
    def forward(self, x, n):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, g, n, need_gx):  # pragma: no cover - abstract
        raise NotImplementedError

    def eval_forward(self, x, n):
        """Evaluation-mode forward inside a training plan: dropout
        becomes identity, BatchNorm reads running stats; everything
        else is the training forward (which matches inference
        numerics)."""
        return self.forward(x, n)

    def inference_body(self, w, x, v: str, n):
        """Write this step's inference forward on an input like ``x``
        (held in body variable ``v``) at batch key ``n`` as straight-line
        lines into the :class:`_BodyWriter` ``w``, reading the scratch
        and constants the forward just served from; return the name
        holding its output.  ``None`` (the default) writes nothing: the
        body then calls the step's :meth:`forward`."""
        return None


def _weight_bias_sources(layers) -> tuple:
    """``param_sources`` of a weight(+bias) layer family."""
    srcs = [tuple((lay.weight, "data") for lay in layers)]
    if layers[0].bias is not None:
        srcs.append(tuple((lay.bias, "data") for lay in layers))
    return tuple(srcs)


def _buf(s: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    arr = s.get(key)
    if arr is None or arr.shape != shape or arr.dtype != dtype:
        arr = s[key] = np.empty(shape, dtype=dtype)
    return arr


# ----------------------------------------------------------------------
# Activation kernels (forward in place, backward from stashed output)
# ----------------------------------------------------------------------

#: 0-d operands per plan dtype: they save the per-call scalar->array
#: conversion in ufuncs, and the buffer's own dtype keeps the ufunc on
#: its loop (a float64 zero runs float32 through float64's, cast).
_ZEROS = {np.dtype(t): np.zeros((), t) for t in (np.float64, np.float32)}


def _relu_in(buf):
    np.maximum(buf, _ZEROS[buf.dtype], out=buf)


def _tanh_in(buf):
    np.tanh(buf, out=buf)


def _sigmoid_in(buf):
    # 1 / (1 + exp(-x)), the Tensor.sigmoid formula, fully in place.
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    np.reciprocal(buf, out=buf)


def act_kind(layer):
    """``(kind, slope)`` for an activation layer, else ``None``."""
    if isinstance(layer, L.ReLU):
        return ("relu", 0.0)
    if isinstance(layer, L.Tanh):
        return ("tanh", 0.0)
    if isinstance(layer, L.Sigmoid):
        return ("sigmoid", 0.0)
    if isinstance(layer, L.LeakyReLU):
        return ("leaky", layer.slope)
    return None


def _act_forward(kind, slope, z, s):
    """Apply activation in place on the pre-activation buffer ``z``."""
    if kind == "relu":
        _relu_in(z)
    elif kind == "tanh":
        _tanh_in(z)
    elif kind == "sigmoid":
        _sigmoid_in(z)
    else:  # leaky
        mb = _buf(s, "act_mask", z.shape, dtype=bool)
        t = _buf(s, "act_t", z.shape, dtype=z.dtype)
        np.greater(z, 0.0, out=mb)
        t.fill(slope)
        np.copyto(t, 1.0, where=mb)
        np.multiply(z, t, out=z)


def _act_backward(kind, slope, g, out, s):
    """In-place ``g *= act'`` using the stashed activation *output*.

    All four activations admit derivative-from-output forms that match
    the graph path's derivative-from-input values exactly (for ReLU and
    LeakyReLU, ``out > 0`` iff ``pre > 0`` because the slope is
    positive).
    """
    if kind == "relu":
        mb = _buf(s, "act_mask", out.shape, dtype=bool)
        np.greater(out, 0.0, out=mb)
        np.multiply(g, mb, out=g)
    elif kind == "tanh":
        t = _buf(s, "act_t", out.shape)
        np.multiply(out, out, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(g, t, out=g)
    elif kind == "sigmoid":
        # Graph: g * out * (1 - out), associated as (g*out)*(1-out).
        t = _buf(s, "act_t", out.shape)
        np.multiply(g, out, out=g)
        np.subtract(1.0, out, out=t)
        np.multiply(g, t, out=g)
    else:  # leaky
        mb = _buf(s, "act_mask", out.shape, dtype=bool)
        t = _buf(s, "act_t", out.shape)
        np.greater(out, 0.0, out=mb)
        t.fill(slope)
        np.copyto(t, 1.0, where=mb)
        np.multiply(g, t, out=g)


# ----------------------------------------------------------------------
# Lowering registry + context
# ----------------------------------------------------------------------

_LOWERINGS: dict = {}


def register_lowering(*layer_types):
    """Register ``lower(layer, ctx)`` for one or more layer types.

    The function is looked up through the layer's MRO, so subclasses
    inherit their base lowering unless they register their own.
    """
    def deco(fn):
        for t in layer_types:
            _LOWERINGS[t] = fn
        return fn
    return deco


def lowering_for(layer):
    for klass in type(layer).__mro__:
        fn = _LOWERINGS.get(klass)
        if fn is not None:
            return fn
    return None


def _flatten_layers(model: L.Module, seqs: list) -> list:
    if isinstance(model, L.Sequential):
        # Weak container reference: a plan must not keep its model
        # alive (engines cache plans per model id and rely on the
        # model's death to retire entries — and to hand the retired
        # scratch to a hot-swapped successor).  A dead ref reads as
        # stale.
        seqs.append((weakref.ref(model), model.layers, len(model.layers)))
        out = []
        for layer in model.layers:
            out.extend(_flatten_layers(layer, seqs))
        return out
    return [model]


class LoweringContext:
    """Per-compilation state handed to each layer lowering.

    ``training`` selects the lowering mode; ``k`` is the member count
    of a stacked (fleet) lowering and ``None`` for one model; ``dtype``
    is the plan's (float64, or float32 for a narrowed inference plan).
    Lowerings read the K peer layers at the cursor via :meth:`peers`
    and append steps via :meth:`emit` (a layer that lowers to nothing
    emits nothing), one summary line each.
    """

    __slots__ = ("training", "k", "dtype", "steps", "watch", "summary",
                 "n_fused", "_members", "_pos")

    def __init__(self, members, training: bool, stacked: bool, dtype):
        self.training = training
        self.k = len(members) if stacked else None
        self.dtype = dtype
        self.steps: list = []
        self.watch: list = []
        self.summary: list = []
        self.n_fused = 0
        self._members = members
        self._pos = 0

    # -- walk ------------------------------------------------------------
    def peers(self) -> list:
        """The K members' layers at the current position (a list of one
        for a single model)."""
        return [m[self._pos] for m in self._members]

    # -- emission --------------------------------------------------------
    def emit(self, step, note: str) -> None:
        """Append ``step``, binding its declared tensors: the one rule.

        One model binds here, at the plan's dtype — a live array that
        has it is bound itself (write-through), any other as one copy
        at that dtype — with the staleness watch on the live arrays
        either way (trainable ones validated in training mode).  A
        derived constant (:meth:`PlanStep.derive_const`) is computed
        from the live array and rounded once; a stacked lowering's slab
        rows hold the same values.  A stacked or narrowed lowering
        refuses a step that does not declare its tensors (a stacked one
        also needs ``k``)."""
        if self.k is not None and step.k is None or not step.declared \
                and (self.k is not None or self.dtype != np.float64):
            layer = self._members[0][self._pos]
            form = "fleet" if self.k is not None else self.dtype.name
            raise UnsupportedLayerError(
                f"no {form} lowering for {type(layer).__name__}: "
                f"{type(step).__name__} has no {form} form")
        if self.k is None:
            params = [src[0] for src in step.param_sources()]
            consts = [src[0] for src in step.const_sources()]
            for holder, attr in params:
                if self.training:
                    self.add_param(holder)
                else:
                    self.watch_attr(holder, attr)
            for holder, attr in consts:
                self.watch_attr(holder, attr)
            if params:
                step.bind_params([self._at_dtype(getattr(h, a))
                                  for h, a in params])
            if consts:
                step.bind_consts([
                    self._at_dtype(step.derive_const(si, getattr(h, a)))
                    for si, (h, a) in enumerate(consts)])
        step.pos = self._pos
        self.steps.append(step)
        self.summary.append(note)

    def _at_dtype(self, arr):
        return arr if arr.dtype == self.dtype else arr.astype(self.dtype)

    # -- bookkeeping -----------------------------------------------------
    def watch_attr(self, obj, name: str) -> None:
        self.watch.append((obj, name, getattr(obj, name)))

    def add_param(self, p) -> None:
        """Register a trainable parameter (training mode): validates the
        layout the flat gradient buffer requires and watches rebinds."""
        if p.data.dtype != np.float64 or not p.data.flags["C_CONTIGUOUS"]:
            raise UnsupportedLayerError(
                "compiled training requires contiguous float64 parameters")
        self.watch.append((p, "data", p.data))


def _lower(models, training: bool, stacked: bool, dtype):
    """The one lowering loop: walk the (lockstep) layer lists through
    the registry; returns the filled context, the structural watch list
    and the flattened layer count."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"plans support float64/float32, not {dtype}")
    struct_watch: list = []
    members = [_flatten_layers(m, struct_watch) for m in models]
    ctx = LoweringContext(members, training, stacked, dtype)
    layers = members[0]
    while ctx._pos < len(layers):
        layer = layers[ctx._pos]
        fn = lowering_for(layer)
        if fn is None:
            raise UnsupportedLayerError(
                f"no compiled lowering for {type(layer).__name__}")
        fn(layer, ctx)
        ctx._pos += 1
    _fold(ctx)
    return ctx, struct_watch, len(layers)


def _fold(ctx) -> None:
    """The one fusion pass: a GEMM step absorbs the activation after it
    (every mode) and, in a single-model inference plan, a preceding
    ``Standardize`` (prologue) and the ``CropPad2d`` / ``Destandardize``
    steps after it (epilogue, graph order, in place: every bound tensor
    has the plan's dtype, so nothing promotes).  One summary line a
    step."""
    fold = ctx.k is None and not ctx.training
    steps, labels = [], []
    for step, label in zip(ctx.steps, ctx.summary):
        host = steps[-1] if steps else None
        name = label.split(":")[0]
        if isinstance(host, _GemmStep) and _absorbs(host, step, fold):
            if isinstance(step, ActStep):
                host.act, host.slope = step.act, step.slope
            else:
                host.epi += (step,)
            head, kind = labels[-1].split(": ", 1)
            labels[-1] = f"{head}+{name}: {kind}"
            ctx.n_fused += 1
            continue
        if fold and isinstance(step, _GemmStep) and \
                type(host) is StandardizeStep:
            step.pro = steps.pop()
            label = f"{labels.pop().split(':')[0]}→{label}"
            ctx.n_fused += 1
        steps.append(step)
        labels.append(label)
    ctx.steps, ctx.summary = steps, labels


def _absorbs(host, step, fold: bool) -> bool:
    if isinstance(step, ActStep):
        return host.act is None and not host.epi
    return fold and isinstance(step, (DestandardizeStep, CropPad2dStep))


def lower_model(model: L.Module, training: bool, dtype=np.float64):
    """Lower one ``model`` through the registry, its steps bound at
    ``dtype`` (:meth:`LoweringContext.emit`).  Raises
    :class:`UnsupportedLayerError` for layers without an entry (or
    whose entry rejects the requested mode or dtype) — callers fall
    back to the graph or the float64 plan.
    """
    return _lower([model], training, False, dtype)


def lower_fleet(models, training: bool, dtype=np.float64):
    """Lower K same-fleet-fingerprint models into one stacked step
    list (unbound: the calling plan binds it to its ``dtype`` slabs).
    Structurally mixed groups refuse with
    :class:`UnsupportedLayerError` (callers fall back to per-model
    plans), as do layers whose step has no stacked form (conv/pool/
    recurrent members keep their single-model path).
    """
    models = list(models)
    if not models:
        raise ValueError("lower_fleet requires at least one model")
    fps = {fleet_fingerprint(m) for m in models}
    if len(fps) > 1:
        raise UnsupportedLayerError(
            f"fleet members are structurally different: {len(fps)} "
            f"distinct fingerprints across {len(models)} models")
    return _lower(models, training, True, dtype)


# ----------------------------------------------------------------------
# Generated plan bodies: one straight-line replay per input geometry
# ----------------------------------------------------------------------

#: The C functions behind ``np.dot`` / ``np.copyto``, without their
#: Python-level ``__array_function__`` dispatcher (a body only ever
#: passes them plain ndarrays).
_DOT = getattr(np.dot, "_implementation", np.dot)
_COPYTO = getattr(np.copyto, "_implementation", np.copyto)


class _PlanBodies(dict):
    """A plan's generated bodies, by input ``(shape, dtype)``.

    A body replays, for one input geometry the plan has already served
    twice, the ufunc calls of its steps' inference forwards with the
    scratch, live tensor views and :attr:`PlanStep._geoms` constants
    those forwards used — no per-step look-up, geometry compare or
    helper frame.  ``None`` marks a geometry served once.  Bodies are
    derived copies (``DESIGN.md`` §5): every writer of what they capture
    drops the table — :meth:`PlanStep.clear` (past 16 batch sizes),
    ``bind_params`` / ``bind_consts`` of a step with a body form and
    :meth:`FleetPlan.refresh_member`.  Steps reach it through a weak
    reference, so a body's scope pins no cycle back to its plan.
    """

    __slots__ = ("__weakref__",)

    def own(self, steps) -> "_PlanBodies":
        for step in steps:
            step.bodies = weakref.ref(self)
        return self

    def serve(self, steps, geometry, h, n, cast=None, shared=False):
        """``steps``' forwards on ``h`` at batch key ``n``, one after
        another; the second time input ``geometry`` is served here, its
        body is generated (the input cast to ``cast`` first, then given
        its member axis when ``shared``)."""
        xs = []
        for step in steps:
            xs.append(h)
            h = step.forward(h, n)
        if geometry not in self:
            self[geometry] = None
        else:
            self[geometry] = _BodyWriter(cast, shared).replay(steps, xs, n)
        return h

    def split_or_serve(self, steps, x, cast, n, plan):
        """``x`` through ``steps`` as row blocks dealt to row lanes (the
        dispatcher kept as its body), else :meth:`serve` (DESIGN.md §4)."""
        rows = x.shape[0] if x.ndim > 1 else 0
        if rows >= 2 * _LANE_ROWS:
            key = ("rows", x.shape[1:], x.dtype)
            rule = self.get(key) or \
                self.setdefault(key, _RowBlocks(steps, x, cast))
            k = max(1, min(_lane_width(), rows // rule.floor,
                           int(2 * rule.flops * rows // _LANE_FLOPS)))
            for k in range(k, 0, -1):  # no lane under the floor
                cuts = [round(rows * i / k / _LANE_ROWS) * _LANE_ROWS
                        for i in range(k)] + [rows]
                if min(b - a for a, b in zip(cuts, cuts[1:])) >= rule.floor:
                    break
            if k > 1 or rows >= 2 * rule.rows:
                split = self[x.shape, x.dtype] = rule.deal(cuts, plan)
                return split(x)
        return self.serve(steps, (x.shape, x.dtype),
                          x if cast is None else x.astype(cast), n, cast)


class _BodyWriter:
    """The source and globals of one generated plan body, its input cast
    to ``cast`` first, then given its member axis when ``shared``."""

    __slots__ = ("lines", "scope", "n_vars", "rows", "whole", "flops", "dots")

    def __init__(self, cast=None, shared=False):
        self.lines = ["def body(x):"]
        self.scope: dict = {}
        self.n_vars = 0
        self.rows: set = set()         # batch-major captures: z, a hints
        self.whole = False             # a capture ties it to the batch
        self.flops, self.dots = 0, []  # of the GEMMs; the 2-D ones' weights
        if cast is not None:
            self.line(f"x = x.astype({self.ref(cast, 'd')})")
        if shared:
            self.line("x = x[None]")

    def ref(self, value, hint: str) -> str:
        """A global name for ``value``; a ufunc or kernel by its own."""
        name = value.__name__ if value is _DOT or value is _COPYTO \
            or isinstance(value, np.ufunc) else None
        if name is None:
            name = f"{hint}{len(self.scope)}"
            if hint in ("z", "a"):
                self.rows.add(name)
            self.whole |= hint == "s"
        self.scope[name] = value
        return name

    def var(self) -> str:
        """A fresh local (locals never share a global's name)."""
        self.n_vars += 1
        return f"v{self.n_vars}"

    def line(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def replay(self, steps, xs, n, v: str = "x"):
        """The body running ``steps`` on inputs like ``xs`` (each step's
        input in the forward just served) at batch key ``n``, from body
        variable ``v``."""
        for step, x in zip(steps, xs):
            out = step.inference_body(self, x, v, n)
            if out is None:
                out = self.var()
                self.line(f"{out} = {self.ref(step.forward, 'f')}({v}, "
                          f"{n!r})")
                self.whole |= not step.rowwise
            v = out
        self.line(f"return {v}")
        return generate("body", "\n".join(self.lines), self.scope)

    # -- shared pieces of the step forms ---------------------------------
    def ops(self, z: str, op1, a, op2, b, src: str | None = None) -> None:
        """``op2(op1(src, a), b)`` into ``z`` (``src`` defaults to
        ``z``): a standardize-family prologue or epilogue."""
        self.line(f"{self.ref(op1, 'f')}({src or z}, {self.ref(a, 'a')}, "
                  f"out={z})")
        self.line(f"{self.ref(op2, 'f')}({z}, {self.ref(b, 'a')}, out={z})")

    def act(self, kind, slope, z: str, s: dict, dtype) -> None:
        """The in-place activation of :func:`_act_forward` on ``z``, of
        ``dtype`` (leaky: with its mask scratch in the step scratch
        ``s``)."""
        if kind == "relu":
            self.line(f"{self.ref(np.maximum, 'f')}({z}, "
                      f"{self.ref(_ZEROS[dtype], 'c')}, out={z})")
        elif kind in ("tanh", "sigmoid"):
            ufuncs = (np.tanh,) if kind == "tanh" else (np.negative, np.exp)
            for ufunc in ufuncs:
                self.line(f"{self.ref(ufunc, 'f')}({z}, out={z})")
            if kind == "sigmoid":
                add = self.ref(np.add, "f")
                self.line(f"{add}({z}, 1.0, out={z})")
                self.line(f"{self.ref(np.reciprocal, 'f')}({z}, out={z})")
        elif kind is not None:
            self.line(f"{self.ref(_act_forward, 'f')}({kind!r}, {slope!r}, "
                      f"{z}, {self.ref(s, 's')})")

    def tail(self, tail, z: str) -> str:
        """A folded epilogue (:func:`_run_tail`) on ``z``; returns the
        name holding its result."""
        for _, op1, a, op2, b in tail:
            if op2 is None:            # crop/pad: the step's own forward
                out = self.var()
                self.line(f"{out} = {self.ref(op1, 'f')}({z}, {a!r})")
                z = out
            else:
                self.ops(z, op1, a, op2, b)
        return z


# ----------------------------------------------------------------------
# Row lanes and row blocks: a large one-model body as row pieces
# ----------------------------------------------------------------------

#: Pieces and blocks are cut at multiples of this many rows, so the BLAS
#: tiles a piece's GEMMs as it tiles the whole batch's (DESIGN.md §4).
_LANE_ROWS = 192
#: GEMM flops a body needs before it splits, half of it per piece.
_LANE_FLOPS = 32e6
#: Batch-major scratch bytes a row block's body may hold (DESIGN.md §4).
_BLOCK_BYTES = 1 << 20
#: Rows of the reference GEMM a floor is checked against (DESIGN.md §4),
#: and the floors by GEMM weight shape, dtype and strides (§5).
_FLOOR_REF, _FLOORS = 960, {}


@functools.cache
def _blas_getter():
    """The loaded OpenBLAS's thread-count getter, looked up once per
    process (a ~1 ms scan); None where there is none (another BLAS, or
    no ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        for lib in map(ctypes.CDLL, sorted(paths)):
            for name in ("openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads64_"):
                if hasattr(lib, name):
                    return getattr(lib, name)
    except OSError:
        pass
    return None


def _blas_threads():
    """The thread count the loaded OpenBLAS reports; None if unreadable."""
    getter = _blas_getter()
    return None if getter is None else getter()


def _lane_width() -> int:
    """The lanes a large forward may take here: the usable CPUs, or one
    under a BLAS that may thread the GEMMs itself."""
    return len(os.sched_getaffinity(0)) if _blas_threads() == 1 else 1


class _Piece:
    """One row piece of a split call, run by whoever claims it."""

    __slots__ = ("fn", "x", "busy", "exc", "done")

    def __init__(self, fn, x):
        self.fn, self.x, self.exc = fn, x, None
        self.done = threading.Event()

    def run(self) -> None:
        start = time.perf_counter()
        try:
            self.fn(self.x)
        except BaseException as exc:   # raised by the split's caller
            self.exc = exc
        self.busy = time.perf_counter() - start
        self.fn = self.x = None        # no borrowed row outlives the call
        self.done.set()


def _lane(queue, wake) -> None:
    """A lane thread: run each offered piece its caller has not taken."""
    while True:
        wake.acquire()
        try:
            piece = queue.popleft()
        except IndexError:
            continue                   # its caller ran it
        piece.run()
        del piece


def _lanes_reset() -> None:
    """A lane pool with no thread yet (at import, in a forked child)."""
    global _QUEUE, _WAKE, _START, _LANES
    _QUEUE, _WAKE = collections.deque(), threading.Semaphore(0)
    _START, _LANES = threading.Lock(), 0


_lanes_reset()
os.register_at_fork(after_in_child=_lanes_reset)


def _run_split(pieces, out, plan, x):
    """A split body: ``pieces`` (``(start, stop, body)``) write rows of
    ``out``.  Piece 0 runs here, the others are offered to the lane
    threads, and the caller runs any no lane has claimed, so a busy pool
    never blocks.  ``plan().last_split`` gets the lanes and busy time."""
    global _LANES
    jobs = [_Piece(fn, x[lo:hi]) for lo, hi, fn in pieces]
    with _START:
        while _LANES < len(jobs) - 1:
            _LANES += 1
            threading.Thread(target=_lane, args=(_QUEUE, _WAKE),
                             name="repro-lane", daemon=True).start()
    _QUEUE.extend(jobs[1:])
    _WAKE.release(len(jobs) - 1)
    jobs[0].run()
    for job in jobs[1:]:
        try:
            _QUEUE.remove(job)
        except ValueError:
            job.done.wait()            # a lane claimed it
        else:
            job.run()
    for job in jobs:
        if job.exc is not None:
            raise job.exc
    plan().last_split = (len(jobs), sum(job.busy for job in jobs))
    return out


def _run_blocks(blocks, out, x):
    """A lane's rows ``x`` as ``blocks`` (start, stop, body) into ``out``."""
    for lo, hi, fn in blocks:
        _COPYTO(out[lo:hi], fn(x[lo:hi]))
    return out


def _floor(wt) -> float:
    """The fewest rows, a multiple of 192, from which aligned runs of
    ``x @ wt`` are bitwise the same rows of a longer GEMM, inf past 768:
    one run a candidate against a 960-row reference (DESIGN.md §4)."""
    key = wt.shape, wt.dtype, wt.strides
    if key not in _FLOORS:             # seeded operands of wt's layout
        rng, w = np.random.default_rng(0), np.empty_like(wt)
        w[...] = rng.random(w.shape)
        x = np.asarray(rng.random((_FLOOR_REF, len(w))), w.dtype)
        ref = np.dot(x, w)
        _FLOORS[key] = next((rows for rows in range(
            _LANE_ROWS, _FLOOR_REF, _LANE_ROWS) if np.dot(
                x[:rows], w).tobytes() == ref[:rows].tobytes()), math.inf)
    return _FLOORS[key]


class _RowBlocks:
    """One input row geometry's floor (its GEMMs' largest), block rows
    (both infinite where its body cannot run by rows) and each lane's
    block body, at key ``-1 - lane`` (DESIGN.md §4)."""

    __slots__ = ("steps", "cast", "like", "out", "floor", "rows", "flops",
                 "lanes")

    def __init__(self, steps, x, cast):
        self.steps, self.cast, self.like = steps, cast, (x.shape[1:], x.dtype)
        self.lanes, self.floor = [], math.inf
        self.rows, self.flops = math.inf, 0.0
        if _blas_threads() != 1:       # it may cut a block unlike a batch
            return
        w, body = self.body(_LANE_ROWS, -1)    # lane 0's key, resized later
        arrays, held = [body.__globals__[name] for name in w.rows], {}
        for a in arrays:
            while getattr(a, "base", None) is not None:
                a = a.base
            held[id(a)] = a.nbytes     # each scratch buffer once
        if held and not w.whole and \
                all(a.shape[:1] == (_LANE_ROWS,) for a in arrays):
            self.floor = max(map(_floor, w.dots), default=_LANE_ROWS)
            self.rows = max(2 * self.floor, _LANE_ROWS *
                            (_BLOCK_BYTES // sum(held.values())))
            self.flops = w.flops / _LANE_ROWS

    def body(self, rows, n) -> tuple:
        """The writer and body of the steps' forwards at key ``n`` on
        ``rows`` rows."""
        h = np.zeros((rows, *self.like[0]),
                     self.like[1] if self.cast is None else self.cast)
        xs = [h]                       # each step's input, then the output
        for step in self.steps:
            xs.append(h := step.forward(h, n))
        self.out = h.shape[1:], h.dtype
        w = _BodyWriter(self.cast)
        return w, w.replay(self.steps, xs, n)

    def deal(self, cuts, plan):
        """Lane ``cuts`` as blocks of :attr:`rows` rows into one output, a
        last one under the floor taking the floor's rows from the one
        before, a shorter one on the leading rows of its lane's scratch."""
        while len(self.lanes) < len(cuts) - 1:
            self.lanes.append(self.body(self.rows, -1 - len(self.lanes)))
        out, lanes = np.empty((cuts[-1], *self.out[0]), self.out[1]), []
        for (w, body), lo, hi in zip(self.lanes, cuts, cuts[1:]):
            stops = [*range(lo + self.rows, hi, self.rows), hi]
            if len(stops) > 1 and hi - stops[-2] < self.floor:
                stops[-2] -= self.floor
            g = body.__globals__
            lanes.append((lo, hi, functools.partial(_run_blocks, tuple(
                (a - lo, b - lo, body if b - a == self.rows else
                 types.FunctionType(body.__code__, {**g, **{
                     name: g[name][:b - a] for name in w.rows}}))
                for a, b in zip([lo, *stops], stops)), out[lo:hi])))
        if len(lanes) == 1:
            return lanes[0][2]
        return functools.partial(_run_split, tuple(lanes), out,
                                 weakref.ref(plan))


# ----------------------------------------------------------------------
# Steps shared by both modes
# ----------------------------------------------------------------------

def _at_extent(step, shape, dtype=None) -> tuple:
    """A standardize-family ``step`` as ``(z, op1, a, op2, b)``, both
    constants copied out at full ``shape`` (NumPy's broadcast iterator
    costs more than the copy); ``z`` is ``op1``'s scratch given ``dtype``."""
    a, b = (np.array(np.broadcast_to(c, shape)) for c in (step.a, step.b))
    z = None if dtype is None else \
        np.empty(shape, dtype=np.result_type(dtype, a.dtype))
    return z, step.ufuncs[0], a, step.ufuncs[1], b


def _run_tail(z, tail):
    """A folded epilogue on ``z``, in graph order and on buffers the
    step owns: crop/pad (a view of ``z`` or a fresh pad), then in place."""
    for _, op1, a, op2, b in tail:
        if op2 is None:
            z = op1(z, a)
        else:
            op1(z, a, out=z)
            op2(z, b, out=z)
    return z


class _GemmStep(PlanStep):
    """Affine or conv, with what :func:`_fold` merged in: :attr:`act`,
    :attr:`pro` and :attr:`epi`; its one-model inference forward caches
    each input geometry's prologue scratch and constants in
    :attr:`_geoms`."""

    __slots__ = ("act", "slope", "pro", "epi")
    declared = True

    def __init__(self, training, k, layers):
        super().__init__(training, k, layers)
        self.act, self.slope = None, 0.0
        self.pro, self.epi = None, ()

    def _fold_at(self, x, n) -> tuple:
        """Geometry entry of input ``x``: key, prologue (or ``None``),
        epilogue ops and the ``_stage(x, n)`` GEMM state."""
        pro = None if self.pro is None else \
            _at_extent(self.pro, x.shape, x.dtype)
        state, shape = self._stage(x if pro is None else pro[0], n)
        tail = []
        for step in self.epi:
            if isinstance(step, CropPad2dStep):
                if shape[-2:] != (step.height, step.width):
                    tail.append((None, step.forward, 0, None, None))
                shape = shape[:-2] + (step.height, step.width)
            else:
                tail.append(_at_extent(step, shape))
        return (x.shape, x.dtype), pro, tuple(tail), state

    def _folded(self, x, n) -> tuple:
        """The cached geometry entry of input ``x`` and ``x`` through
        its prologue (into the entry's scratch, never the borrowed
        input)."""
        g = self._geoms.get(n)
        if g is None or g[0] != (x.shape, x.dtype):
            g = self._geoms[n] = self._fold_at(x, n)
        if g[1] is not None:
            zs, op1, a, op2, b = g[1]
            op1(x, a, out=zs)
            op2(zs, b, out=zs)
            x = zs
        return g, x


class AffineStep(_GemmStep):
    """Fused ``z = act(x @ W.T + b)``, per member.

    The bound weight is each member's own C-contiguous ``(out, in)``
    ``Linear`` layout — stacked ``(K, out, in)`` for a fleet — and the
    forward multiplies by its transpose *view*, so in-place updates
    flow through.  One unstacked 2-D batch is a single ``np.dot`` into
    scratch; every other stream (a fleet's ``(K, B, in)``, or 3-D
    activations such as GRU ``return_sequence=True`` feeding a head
    affine) is one batched ``np.matmul``, which BLAS executes as
    independent GEMMs — a fleet row is bitwise its member's
    ``np.dot(x, W.T)``.

    Training backward: ``dz = g * act'(z)`` in place on the incoming
    gradient buffer, then ``gW = dz.T @ x`` and ``gb = dz.sum(batch)``
    straight into the plan's gradient buffer, and ``gx = dz @ W`` into
    step scratch (skipped for the plan's first parameterized step).
    Unstacked 3-D activations collapse their leading axes into one
    flattened GEMM — the same sum the graph path accumulates per batch
    entry, within 1e-10.  Single-model inference additionally handles
    non-2-D inputs (correctness over speed on those rare shapes).
    """

    __slots__ = ("w", "wt", "b", "gw", "gb")

    def __init__(self, layers, training, k=None):
        super().__init__(training, k, layers)
        self.w = self.wt = self.b = None
        self.gw = self.gb = None

    def param_sources(self):
        return _weight_bias_sources(self.layers)

    def bind_params(self, views):
        self.w = views[0]              # (out, in) | (K, out, in)
        self.wt = self.w.swapaxes(-1, -2)   # view: in-place updates flow
        # A (1, out) | (K, 1, out) row against the stream's batch axis.
        self.b = views[1][..., None, :] if len(views) > 1 else None
        self._geoms.clear()            # full-extent copies of the old b
        self.drop_bodies()

    def bind_grads(self, views):
        self.gw = views[0]
        self.gb = views[1] if len(views) > 1 else None

    def forward(self, x, n):
        if self.k is not None and not self.training:
            return self._fleet_forward(x, n)
        tail = ()
        if self.pro is not None or self.epi:    # one-model inference
            g, x = self._folded(x, n)
            tail = g[2]
        b = self.b
        if self.k is None and x.ndim != 2 and not self.training:
            z = np.matmul(x, self.wt)      # rare inference shapes
            if b is not None:
                z = z + b[0]
            if self.act is not None:
                _act_forward(self.act, self.slope, z, {})
            return _run_tail(z, tail) if tail else z
        s = self.scratch(n)
        z = s.get("z")
        if self.k is None and x.ndim == 2:
            if z is None or z.shape[0] != x.shape[0]:
                z = s["z"] = np.empty(
                    (x.shape[0], self.wt.shape[1]),
                    dtype=np.result_type(x.dtype, self.w.dtype))
            np.dot(x, self.wt, out=z)
        else:
            na = self.n_active
            wt = self.wt if na == self.k else self.wt[:na]
            lead = x.shape[:-1] if na is None else (na,) + x.shape[1:-1]
            shape = lead + (wt.shape[-1],)
            if z is None or z.shape != shape:
                z = s["z"] = np.empty(shape, dtype=wt.dtype)
            np.matmul(x, wt, out=z)
            if b is not None:
                b = b[:na]
        if b is not None:
            np.add(z, b, out=z)
        if self.act is not None:
            _act_forward(self.act, self.slope, z, s)
        if self.training:
            s["x"] = x
        return _run_tail(z, tail) if tail else z

    def _fleet_forward(self, x, n):
        """A fleet inference forward, with each wave geometry's output
        buffer and constants in :attr:`_geoms`: the bias and the ReLU
        zero copied out at the full ``(K, B, out)`` extent while that
        copy is no larger than the step's own weight slab (``B`` at
        most the fan-in), else the broadcast ``(K, 1, out)`` row and the
        0-d zero.  The copies derive from the slab, so every slab
        writer drops them (:meth:`bind_params`,
        :meth:`FleetPlan.refresh_member`)."""
        g = self._geoms.get(n)
        if g is None or g[0] != x.shape:
            g = self._geoms[n] = self._fleet_geometry(x, n)
        _, z, bias, zero = g
        np.matmul(x, self.wt, out=z)
        if bias is not None:
            np.add(z, bias, out=z)
        if zero is not None:
            np.maximum(z, zero, out=z)
        elif self.act is not None:
            _act_forward(self.act, self.slope, z, self.scratch(n))
        return z

    def _fleet_geometry(self, x, n) -> tuple:
        wt = self.wt
        shape = (self.k,) + x.shape[1:-1] + (wt.shape[-1],)
        full = n <= wt.shape[-2]
        bias = self.b
        if bias is not None and full:
            bias = np.array(np.broadcast_to(bias, shape))
        zero = None
        if self.act == "relu":
            zero = np.zeros(shape, dtype=wt.dtype) if full \
                else _ZEROS[wt.dtype]
        return x.shape, np.empty(shape, dtype=wt.dtype), bias, zero

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        if self.act is not None:
            _act_backward(self.act, self.slope, g, s["z"], s)
        x = s["x"]
        if self.k is not None:
            na = g.shape[0]
            # (na, out, B) @ (na|1, B, in): a still-shared x broadcasts.
            np.matmul(g.transpose(0, 2, 1), x, out=self.gw[:na])
            if self.gb is not None:
                np.add.reduce(g, axis=1, out=self.gb[:na])
            if not need_gx:
                return None
            gx = _buf(s, "gx", g.shape[:-1] + (self.w.shape[-1],))
            np.matmul(g, self.w[:na], out=gx)
            return gx
        if g.ndim != 2:
            # Leading axes collapse into one GEMM: the same per-entry
            # outer-product sum the graph accumulates batch-by-batch.
            out_f, in_f = self.w.shape
            np.dot(g.reshape(-1, out_f).T, x.reshape(-1, in_f),
                   out=self.gw)
            if self.gb is not None:
                np.add.reduce(g.reshape(-1, out_f), axis=0, out=self.gb)
            if not need_gx:
                return None
            gx = _buf(s, "gx", g.shape[:-1] + (in_f,))
            np.matmul(g, self.w, out=gx)
            return gx
        np.dot(g.T, x, out=self.gw)
        if self.gb is not None:
            # add.reduce is what np.sum dispatches to (bit-identical to
            # the graph path's unbroadcast sum) minus wrapper overhead.
            np.add.reduce(g, axis=0, out=self.gb)
        if not need_gx:
            return None
        gx = _buf(s, "gx", (g.shape[0], self.w.shape[1]))
        np.dot(g, self.w, out=gx)
        return gx

    def _stage(self, x, n):
        return None, x.shape[:-1] + (self.wt.shape[1],)

    def inference_body(self, w, x, v, n):
        if self.training:
            return None
        if self.k is not None:         # :meth:`_fleet_forward`
            g = self._geoms.get(n)
            if g is None or g[0] != x.shape:
                return None
            _, z, bias, zero = g
            zn = w.ref(z, "z")
            w.line(f"{w.ref(np.matmul, 'f')}({v}, {w.ref(self.wt, 'w')}, "
                   f"out={zn})")
            if bias is not None:
                w.line(f"{w.ref(np.add, 'f')}({zn}, {w.ref(bias, 'b')}, "
                       f"out={zn})")
            if zero is not None:
                w.line(f"{w.ref(np.maximum, 'f')}({zn}, {w.ref(zero, 'c')}, "
                       f"out={zn})")
            else:
                w.act(self.act, self.slope, zn, self.scratch(n), z.dtype)
            return zn
        if x.ndim != 2:
            return None                # rare shapes: the forward
        tail = ()
        if self.pro is not None or self.epi:
            g = self._geoms.get(n)
            if g is None or g[0] != (x.shape, x.dtype):
                return None
            if g[1] is not None:
                zs = w.ref(g[1][0], "z")
                w.ops(zs, *g[1][1:], src=v)
                v = zs
            tail = g[2]
        s = self.scratch(n)
        z = s.get("z")
        if z is None or z.shape[0] != x.shape[0]:
            return None
        zn = w.ref(z, "z")
        w.line(f"{w.ref(_DOT, 'f')}({v}, {w.ref(self.wt, 'w')}, out={zn})")
        w.flops += 2 * z.size * self.wt.shape[0]
        w.dots.append(self.wt)
        if self.b is not None:
            w.line(f"{w.ref(np.add, 'f')}({zn}, {w.ref(self.b, 'b')}, "
                   f"out={zn})")
        w.act(self.act, self.slope, zn, s, z.dtype)
        return w.tail(tail, zn)


class ActStep(PlanStep):
    """Standalone activation (one no GEMM step absorbed); elementwise, so
    the same kernel serves a stacked stream (fingerprint equality
    guarantees one kind/slope for all members)."""

    __slots__ = ("act", "slope")
    declared = True

    def __init__(self, act, training, k=None):
        super().__init__(training, k)
        self.act, self.slope = act

    def forward(self, x, n):
        s = self.scratch(n)
        z = s.get("z")
        if z is None or z.shape != x.shape or z.dtype != x.dtype:
            z = s["z"] = np.empty_like(x)
        np.copyto(z, x)
        _act_forward(self.act, self.slope, z, s)
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        _act_backward(self.act, self.slope, g, s["z"], s)
        return g


class DropoutStep(PlanStep):
    """Inverted dropout with cached mask buffers (training mode only;
    inference lowers dropout to identity).

    Each member's mask is drawn from its own layer's RNG with
    ``Generator.random(out=...)`` into its own rows, which consumes
    exactly the same stream as the graph path's ``rng.random(x.shape)``
    — fixed-seed training is bit-for-bit reproducible across the graph,
    the member's own plan and a fleet.  Deactivated members stop
    drawing, exactly like the sequential trainer they mirror stopped
    training.  Members may differ in rate: a fleet carries it as a
    ``(K, 1, 1)`` keep column.
    """

    __slots__ = ("keep",)
    declared = True

    def __init__(self, layers, k=None):
        super().__init__(True, k, layers)
        self.keep = 1.0 - layers[0].p if k is None else \
            np.array([[[1.0 - lay.p]] for lay in layers])

    def swap_members(self, i, j):
        super().swap_members(i, j)
        self.keep[[i, j]] = self.keep[[j, i]]

    def forward(self, x, n):
        x = self._member_rows(x)
        s = self.scratch(n)
        r = _buf(s, "r", x.shape)
        for lay, rows in zip(self.layers, (r,) if self.k is None else r):
            lay.rng.random(out=rows)
        keep = self._active(self.keep)
        mb = _buf(s, "mask_bool", x.shape, dtype=bool)
        np.less(r, keep, out=mb)
        m = _buf(s, "mask", x.shape)
        np.divide(mb, keep, out=m)
        z = _buf(s, "z", x.shape)
        np.multiply(x, m, out=z)
        return z

    def backward(self, g, n, need_gx):
        np.multiply(g, self._bufs[n]["mask"], out=g)
        return g

    def eval_forward(self, x, n):
        return x


def _normalize_forward(s, x, axis, eps):
    """Training-mode ``(x - mean) / std`` over ``axis`` into step
    scratch, replaying the graph ops (``mean = sum * (1/n)``, biased
    variance, ``(var + eps).sqrt()``) — BatchNorm reduces the batch
    axis, LayerNorm the trailing one.  Stashes what
    :func:`_normalize_backward` reads; returns ``(norm, mean, var)``."""
    inv = 1.0 / x.shape[axis]
    mu = x.sum(axis=axis, keepdims=True) * inv
    c = _buf(s, "c", x.shape)
    np.subtract(x, mu, out=c)
    sq = _buf(s, "sq", x.shape)
    np.multiply(c, c, out=sq)
    var = sq.sum(axis=axis, keepdims=True) * inv
    std = np.sqrt(var + eps)
    norm = _buf(s, "norm", x.shape)
    np.divide(c, std, out=norm)
    s["std"] = std
    s["inv"] = inv
    return norm, mu, var


def _normalize_backward(s, g, w, axis, need_gx):
    """Input gradient of ``norm * w + b`` behind
    :func:`_normalize_forward`: the classic normalization adjoint
    derived from those exact ops — gradient flows through the mean and
    variance as well as the normalized activations."""
    c, sq, std, inv = s["c"], s["sq"], s["std"], s["inv"]
    dn = _buf(s, "dn", g.shape)
    np.multiply(g, w, out=dn)
    # d std via norm = c / std (the truediv adjoint, unbroadcast).
    np.multiply(dn, c, out=sq)                 # sq reused as scratch
    np.negative(sq, out=sq)
    np.divide(sq, std * std, out=sq)
    dstd = sq.sum(axis=axis, keepdims=True)
    dvar = dstd * 0.5 / std
    np.divide(dn, std, out=dn)                 # dn = dc (from norm)
    gci = dvar * inv
    np.multiply(c, gci, out=sq)
    np.add(sq, sq, out=sq)                     # 2 * c * dvar / n
    np.add(dn, sq, out=dn)                     # total dc
    if not need_gx:
        return None
    dmu = dn.sum(axis=axis, keepdims=True)
    np.negative(dmu, out=dmu)
    np.multiply(dmu, inv, out=dmu)
    gx = _buf(s, "gx", g.shape)
    np.add(dn, dmu, out=gx)
    return gx


class BatchNormStep(PlanStep):
    """BatchNorm1d: batch stats + running updates in training mode,
    frozen running stats in inference mode.

    The training forward mirrors the graph ops (``mean = sum * (1/n)``,
    biased variance) over :attr:`axis`, the stream's batch axis — 0 for
    one model, 1 behind a fleet's member axis, so per-member summation
    order is the same and fleet rows stay bitwise-sequential; ``n`` is
    that axis's extent.  The backward is the classic batch-norm adjoint
    derived from those exact ops — gradient flows through the batch
    mean and variance as well as the normalized activations.

    Running statistics: an inference step reads them as bound
    constants.  One model's training step rebinds them on the layer
    every batch, exactly like the graph path (so any inference plan
    watching them goes stale too); a fleet's keeps ``(K, 1, F)`` rows
    of its own, updated with the same elementwise expression, and
    :meth:`sync_members` writes them back to the member layers.
    """

    __slots__ = ("w", "b", "run_mu", "run_var", "gw", "gb", "eps",
                 "momentum", "axis")
    declared = rowwise = True

    def __init__(self, layers, training, k=None):
        super().__init__(training, k, layers)
        self.eps = layers[0].eps
        self.momentum = layers[0].momentum
        self.axis = 0 if k is None else 1
        self.w = self.b = self.gw = self.gb = None
        self.run_mu = self.run_var = None
        if training and k is not None:
            self.run_mu = np.stack(
                [lay.running_mean for lay in layers])[:, None]
            self.run_var = np.stack(
                [lay.running_var for lay in layers])[:, None]

    def param_sources(self):
        return _weight_bias_sources(self.layers)

    def const_sources(self):
        if self.training:
            return ()
        return (tuple((lay, "running_mean") for lay in self.layers),
                tuple((lay, "running_var") for lay in self.layers))

    # (F,) vectors bind as (1, F) | (K, 1, F) rows against the batch axis.
    def bind_params(self, views):
        self.w, self.b = (v[..., None, :] for v in views)

    def bind_consts(self, views):
        self.run_mu, self.run_var = (v[..., None, :] for v in views)

    def bind_grads(self, views):
        self.gw, self.gb = views

    # Stacked-training compaction: the rows are this step's own.
    def swap_members(self, i, j):
        super().swap_members(i, j)
        self.run_mu[[i, j]] = self.run_mu[[j, i]]
        self.run_var[[i, j]] = self.run_var[[j, i]]

    def snapshot_row(self, i):
        return (self.run_mu[i].copy(), self.run_var[i].copy())

    def restore_row(self, i, snap):
        self.run_mu[i], self.run_var[i] = snap

    def sync_members(self):
        """Write the stacked running stats back into the member layers
        (rebinding, like one model's training step, so watching
        inference plans go stale)."""
        for i, lay in enumerate(self.layers):
            lay.running_mean = self.run_mu[i, 0].copy()
            lay.running_var = self.run_var[i, 0].copy()

    def eval_forward(self, x, n):
        denom = np.sqrt(self._active(self.run_var) + self.eps)
        return (x - self._active(self.run_mu)) / denom \
            * self._active(self.w) + self._active(self.b)

    def forward(self, x, n):
        if not self.training:
            return self.eval_forward(x, n)
        ax = self.axis
        if x.ndim != ax + 2:
            raise UnsupportedLayerError(
                f"BatchNorm1d expects (N, F) member inputs, got {x.shape}")
        x = self._member_rows(x)
        s = self.scratch(n)
        norm, mu, var = _normalize_forward(s, x, ax, self.eps)
        m = self.momentum
        if self.k is None:
            lay = self.layers[0]
            lay.running_mean = ((1 - m) * lay.running_mean
                                + m * mu.ravel())
            lay.running_var = ((1 - m) * lay.running_var
                               + m * var.ravel())
        else:
            na = self.n_active
            self.run_mu[:na] = (1 - m) * self.run_mu[:na] + m * mu
            self.run_var[:na] = (1 - m) * self.run_var[:na] + m * var
        z = _buf(s, "z", x.shape)
        np.multiply(norm, self._active(self.w), out=z)
        np.add(z, self._active(self.b), out=z)
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        ax = self.axis
        sq = s["sq"]
        np.multiply(g, s["norm"], out=sq)      # sq reused as scratch
        np.add.reduce(sq, axis=ax, out=self._active(self.gw))
        np.add.reduce(g, axis=ax, out=self._active(self.gb))
        return _normalize_backward(s, g, self._active(self.w), ax, need_gx)


class LayerNormStep(PlanStep):
    """LayerNorm over the trailing axis.

    Training mode mirrors :class:`BatchNormStep`'s adjoint structure
    with the reduction moved to the trailing axis (per-row statistics,
    no running state): the forward replays the graph ops (``mean =
    sum * (1/d)``, biased variance, ``(var + eps).sqrt()``), the
    backward flows gradient through the row mean and variance exactly
    as the Tensor adjoints compose.  Row statistics never cross the
    member axis, so only the weight/bias rows are per member.
    """

    __slots__ = ("w", "b", "gw", "gb", "eps")
    declared = rowwise = True

    def __init__(self, layers, training, k=None):
        super().__init__(training, k, layers)
        self.eps = layers[0].eps
        self.w = self.b = self.gw = self.gb = None

    def param_sources(self):
        return _weight_bias_sources(self.layers)

    def bind_params(self, views):
        self.w, self.b = (self._rows(v) for v in views)

    def bind_grads(self, views):
        self.gw, self.gb = views

    def forward(self, x, n):
        w, b = self._active(self.w), self._active(self.b)
        inv_d = 1.0 / x.shape[-1]
        if not self.training:
            # Matches Tensor.mean/var: sum * (1/n), biased variance.
            mu = x.sum(axis=-1, keepdims=True) * inv_d
            centered = x - mu
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
            return centered / np.sqrt(var + self.eps) * w + b
        x = self._member_rows(x)
        s = self.scratch(n)
        norm, _mu, _var = _normalize_forward(s, x, -1, self.eps)
        z = _buf(s, "z", x.shape)
        np.multiply(norm, w, out=z)
        np.add(z, b, out=z)
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        sq = s["sq"]
        # Weight/bias gradients sum over every row of a member:
        # (rows, d) for one model, (members, rows, d) for a fleet.
        per_member = (-1, g.shape[-1]) if self.k is None else \
            (g.shape[0], -1, g.shape[-1])
        np.multiply(g, s["norm"], out=sq)      # sq reused as scratch
        np.add.reduce(sq.reshape(per_member), axis=-2,
                      out=self._active(self.gw))
        np.add.reduce(g.reshape(per_member), axis=-2,
                      out=self._active(self.gb))
        return _normalize_backward(s, g, self._active(self.w), -1, need_gx)


class StandardizeStep(PlanStep):
    """Frozen ``(x - mean) * (1/std)`` — constants, gradient is a scale.

    Usually a plan's first step: a fleet's still-shared input comes out
    of it stacked, one standardized copy per member.  Two ufuncs over two
    constants, ``z = op2(op1(x, a), b)``, as :class:`DestandardizeStep`;
    one model's inference reads them copied out at the input's full
    extent (:func:`_at_extent`, in :attr:`_geoms`).
    """

    __slots__ = ("a", "b")
    ufuncs = (np.subtract, np.multiply)
    declared = True

    def __init__(self, layers, training, k=None):
        super().__init__(training, k, layers)
        self.a = self.b = None

    def const_sources(self):
        return (tuple((lay, "mean") for lay in self.layers),
                tuple((lay, "std") for lay in self.layers))

    def derive_const(self, si, arr):
        return np.divide(1.0, arr) if si else arr          # b = 1/std

    def bind_consts(self, views):
        self.a, self.b = (self._rows(v) for v in views)
        self._geoms.clear()            # full-extent copies of the old a, b
        self.drop_bodies()

    def forward(self, x, n):
        if self.k is None and not self.training:
            g = self._geoms.get(n)
            if g is None or g[0] != (x.shape, x.dtype):
                g = self._geoms[n] = ((x.shape, x.dtype),
                                      *_at_extent(self, x.shape, x.dtype))
            _, z, op1, a, op2, b = g
            op1(x, a, out=z)
            op2(z, b, out=z)
            return z
        x = self._member_rows(x)
        s = self.scratch(n)
        z = s.get("z")
        a, b = self._active(self.a), self._active(self.b)
        dtype = np.result_type(x.dtype, a.dtype)
        if z is None or z.shape != x.shape or z.dtype != dtype:
            z = s["z"] = np.empty(x.shape, dtype=dtype)
        self.ufuncs[0](x, a, out=z)
        self.ufuncs[1](z, b, out=z)
        return z

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        scale = (self.a, self.b)[self.ufuncs.index(np.multiply)]
        np.multiply(g, self._active(scale), out=g)
        return g

    def inference_body(self, w, x, v, n):
        g = None if self.training or self.k is not None \
            else self._geoms.get(n)
        if g is None or g[0] != (x.shape, x.dtype):
            return None
        z = w.ref(g[1], "z")
        w.ops(z, *g[2:], src=v)
        return z


class DestandardizeStep(StandardizeStep):
    """Frozen ``x * std + mean`` output head."""

    __slots__ = ()
    ufuncs = (np.multiply, np.add)

    def derive_const(self, si, arr):
        return arr

    def bind_consts(self, views):
        super().bind_consts(views[::-1])                   # a = std


class FlattenStep(PlanStep):
    """Member ``Flatten(start_dim)``: behind a fleet's member axis the
    stream reshapes from axis ``start_dim + 1``."""

    __slots__ = ("start_dim", "cut")
    declared = rowwise = True

    def __init__(self, start_dim, training, k=None):
        super().__init__(training, k)
        self.start_dim = start_dim
        self.cut = start_dim if k is None else start_dim + 1

    def forward(self, x, n):
        if self.training:
            self.scratch(n)["shape"] = x.shape
        return x.reshape(x.shape[:self.cut] + (-1,))

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        return g.reshape(self._bufs[n]["shape"])


# ----------------------------------------------------------------------
# Convolution steps (channel-major im2col + one GEMM per sample; the
# backward mirrors functional.conv2d)
# ----------------------------------------------------------------------

class Conv2dStep(_GemmStep):
    """2-D cross-correlation.  Forward issues the GEMM of
    ``functional.conv2d`` — ``W (C_out, K) @ cols (N, K, oh*ow)`` on the
    same operands, shapes and layouts, which is what keeps compiled fp64
    bitwise-equal to the graph — but gathers its columns and writes its
    NCHW result in per-batch-size scratch, so a steady-state call
    allocates no array (see :meth:`_scratch_for`).  A 1x1, stride-1,
    unpadded step of an inference plan gathers nothing from a
    C-contiguous input: its columns are that input reshaped, read and
    never written or kept.  Training backward replays the ``conv2d``
    adjoint exactly — ``gW`` from the gathered columns, ``gx`` via
    ``col2im``.  A following activation is fused in place.

    The returned array and the scratch columns are the reused buffers:
    valid until the next forward at the same batch size.

    :class:`Conv1dStep` reuses this machinery through the same
    unit-height reshape route ``functional.conv1d`` takes, overriding
    only the window geometry and the 3-D <-> 4-D lift/lower hooks.
    """

    __slots__ = ("layer", "wmat", "bias", "gw", "gb", "kh", "kw", "padding")

    def __init__(self, layer, training):
        super().__init__(training, None, [layer])
        self.layer = layer
        self.wmat = self.bias = None
        self.gw = self.gb = None
        self.kh = self.kw = layer.kernel_size
        self.padding = getattr(layer, "padding", 0)

    def param_sources(self):
        return _weight_bias_sources(self.layers)

    def bind_params(self, views):
        w = views[0]
        self.wmat = w.reshape(w.shape[0], -1)                 # param view
        self.bias = views[1].reshape(-1, 1) \
            if len(views) > 1 else None                       # param view
        self.drop_bodies()

    def bind_grads(self, views):
        self.gw = views[0]
        self.gb = views[1] if len(views) > 1 else None

    # 3-D <-> unit-height-4-D hooks, identity for the 2-D case.
    def _lift(self, arr):
        return arr

    def _lower(self, out4):
        return out4

    def _scratch_for(self, s, geom):
        """(Re)build the buffers of one batch size for input geometry
        ``geom = (x4.shape, x4.dtype)``: a zero-bordered pad buffer, the
        ``functional.im2col`` window view over it, the channel-major
        columns and the NCHW output the GEMM writes.  A 1x1, stride-1,
        unpadded step has no window view: its pad buffer *is* its
        columns.
        """
        (n, c, h, w), dtype = geom
        kh, kw, stride, p = self.kh, self.kw, self.layer.stride, self.padding
        oh = F.conv_output_size(h, kh, stride, p)
        ow = F.conv_output_size(w, kw, stride, p)
        c_out = self.wmat.shape[0]
        cols = np.empty((n, c * kh * kw, oh * ow), dtype=dtype)
        out4 = np.empty((n, c_out, oh, ow),
                        dtype=np.result_type(dtype, self.wmat.dtype))
        if kh == kw == stride == 1 and not p:
            pad, windows = cols.reshape(n, c, h, w), None
        else:
            # The border is written here, once; forward overwrites only
            # the interior.
            pad = (np.zeros if p else np.empty)((n, c, h + 2 * p, w + 2 * p),
                                                dtype=dtype)
            windows = F._windows(pad, kh, kw, stride)
        conv = s["conv"] = (
            geom, pad[:, :, p:p + h, p:p + w], windows,
            cols.reshape(n, c, kh, kw, oh, ow), cols,
            out4.reshape(n, c_out, oh * ow), self._lower(out4))
        return conv

    def _stage(self, x, n):
        # The plan keys scratch by batch size only: a fully-convolutional
        # model called at the same ``n`` on another grid must rebuild,
        # never gather through a stale window view.
        x4 = self._lift(x)
        s = self.scratch(n)
        conv = s.get("conv")
        if conv is None or conv[0] != (x4.shape, x4.dtype):
            conv = self._scratch_for(s, (x4.shape, x4.dtype))
        return conv, conv[-1].shape

    def forward(self, x, n):
        if self.training:
            (conv, _), tail = self._stage(x, n), ()
        else:                          # one model's inference
            (_, _, tail, conv), x = self._folded(x, n)
        _, interior, windows, cols6, cols, out3, out = conv
        x4 = self._lift(x)
        if windows is None and not self.training and x4.flags.c_contiguous:
            cols = x4.reshape(cols.shape)  # borrowed: read only
        else:
            np.copyto(interior, x4)
            if windows is not None:
                np.copyto(cols6, windows)
        np.matmul(self.wmat, cols, out=out3)       # (N, C_out, oh*ow)
        if self.bias is not None:
            np.add(out3, self.bias, out=out3)
        if self.act is not None:
            _act_forward(self.act, self.slope, out, self._bufs[n])
        return _run_tail(out, tail) if tail else out

    def inference_body(self, w, x, v, n):
        g = None if self.training else self._geoms.get(n)
        if g is None or g[0] != (x.shape, x.dtype):
            return None
        _, pro, tail, conv = g
        if pro is not None:
            zs = w.ref(pro[0], "z")
            w.ops(zs, *pro[1:], src=v)
            v, x = zs, pro[0]
        _, interior, windows, cols6, cols, out3, out = conv
        # Shapes lead with -1: a row piece runs these lines on its rows.
        if self._lift(x) is not x:     # Conv1d: the unit-height view
            x4 = w.var()
            w.line(f"{x4} = {v}.reshape({(-1, *interior.shape[1:])!r})")
            v = x4
        copyto, inner = w.ref(_COPYTO, "f"), w.ref(interior, "z")
        c = w.ref(cols, "z")
        if windows is None:            # 1x1: read a contiguous input
            c_in = w.var()
            w.line(f"if {v}.flags.c_contiguous:")
            w.line(f"    {c_in} = {v}.reshape({(-1, *cols.shape[1:])!r})")
            w.line("else:")
            w.line(f"    {copyto}({inner}, {v})")
            w.line(f"    {c_in} = {c}")
            c = c_in
        else:
            w.line(f"{copyto}({inner}, {v})")
            w.line(f"{copyto}({w.ref(cols6, 'z')}, {w.ref(windows, 'z')})")
        o3 = w.ref(out3, "z")
        w.line(f"{w.ref(np.matmul, 'f')}({w.ref(self.wmat, 'w')}, {c}, "
               f"out={o3})")
        w.flops += 2 * out3.size * cols.shape[1]
        if self.bias is not None:
            w.line(f"{w.ref(np.add, 'f')}({o3}, {w.ref(self.bias, 'b')}, "
                   f"out={o3})")
        o = w.ref(out, "z")
        w.act(self.act, self.slope, o, self._bufs[n], out.dtype)
        return w.tail(tail, o)

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        geom, _, _, _, cols, out3, out = s["conv"]
        if self.act is not None:
            _act_backward(self.act, self.slope, g, out, s)
        # Mirrors the functional.conv2d adjoint op-for-op.
        g4 = self._lift(g)
        g3 = g4.reshape(out3.shape)
        np.matmul(g3, cols.transpose(0, 2, 1)).sum(
            axis=0, out=self.gw.reshape(self.wmat.shape))
        if self.gb is not None:
            g4.sum(axis=(0, 2, 3), out=self.gb)
        if not need_gx:
            return None
        gx4 = F.col2im(np.matmul(self.wmat.T, g3), geom[0], self.kh,
                       self.kw, self.layer.stride, self.padding)
        return self._lower(gx4)


class Conv1dStep(Conv2dStep):
    """1-D cross-correlation via the 2-D kernel with a unit height —
    the exact reshape route ``functional.conv1d`` takes (columns
    ``(N, C*k, out_l)``; a kernel-1, stride-1 inference step reads a
    contiguous input in place), so gradients match the graph path
    bit-for-bit up to GEMM accumulation order."""

    __slots__ = ()

    def __init__(self, layer, training):
        super().__init__(layer, training)
        self.kh, self.kw = 1, layer.kernel_size
        self.padding = 0

    def _lift(self, arr):
        b, c, length = arr.shape
        return arr.reshape(b, c, 1, length)

    def _lower(self, out4):
        return out4.reshape(out4.shape[0], out4.shape[1], -1)


# ----------------------------------------------------------------------
# Pooling / crop-pad steps
# ----------------------------------------------------------------------

class _PoolStep(PlanStep):
    __slots__ = ("kernel", "stride")
    declared = rowwise = True

    def __init__(self, kernel, stride, training=False):
        super().__init__(training)
        self.kernel = kernel
        self.stride = stride


class MaxPool2dStep(_PoolStep):
    __slots__ = ()

    def forward(self, x, n):
        out, arg, _oh, _ow = F.max_pool2d_raw(x, self.kernel, self.stride)
        if self.training:
            s = self.scratch(n)
            s["arg"] = arg
            s["x_shape"] = x.shape
        return out

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        s = self._bufs[n]
        arg = s["arg"]
        gx = np.zeros(s["x_shape"])
        # Scatter each window gradient back to the argmax position —
        # the functional.max_pool2d adjoint, verbatim.
        ih = arg // self.kernel
        iw = arg % self.kernel
        n_idx, c_idx, oh_idx, ow_idx = np.indices(arg.shape)
        rows = oh_idx * self.stride + ih
        cols_ = ow_idx * self.stride + iw
        np.add.at(gx, (n_idx, c_idx, rows, cols_), g)
        return gx


class MaxPool1dStep(_PoolStep):
    __slots__ = ()

    def forward(self, x, n):
        if self.kernel == self.stride == 1 and not self.training:
            return x                 # 1-wide windows at stride 1: identity
        out, arg = F.max_pool1d_raw(x, self.kernel, self.stride)
        if self.training:
            s = self.scratch(n)
            s["arg"] = arg
            s["x_shape"] = x.shape
        return out

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        s = self._bufs[n]
        arg = s["arg"]
        gx = np.zeros(s["x_shape"])
        # Scatter each window gradient back to the argmax position —
        # the functional.max_pool1d adjoint, verbatim.
        n_idx, c_idx, ol_idx = np.indices(arg.shape)
        cols_ = ol_idx * self.stride + arg
        np.add.at(gx, (n_idx, c_idx, cols_), g)
        return gx


class AvgPool2dStep(_PoolStep):
    __slots__ = ()

    def forward(self, x, n):
        out = F.avg_pool2d_raw(x, self.kernel, self.stride)
        if self.training:
            s = self.scratch(n)
            s["x_shape"] = x.shape
            s["out_hw"] = out.shape[-2:]
        return out

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        s = self._bufs[n]
        out_h, out_w = s["out_hw"]
        gx = np.zeros(s["x_shape"])
        # Spread each window gradient evenly over its source cells —
        # the functional.avg_pool2d adjoint, verbatim.
        gs = g * (1.0 / (self.kernel * self.kernel))
        for ih in range(self.kernel):
            for iw in range(self.kernel):
                gx[:, :, ih:ih + self.stride * out_h:self.stride,
                   iw:iw + self.stride * out_w:self.stride] += gs
        return gx


class CropPad2dStep(PlanStep):
    """Crop/zero-pad trailing spatial dims; backward un-pads then
    un-crops (the adjoints of ``Tensor.pad`` and ``__getitem__``)."""

    __slots__ = ("height", "width")
    declared = rowwise = True

    def __init__(self, height, width, training):
        super().__init__(training)
        self.height = height
        self.width = width

    def forward(self, x, n):
        if self.training:
            self.scratch(n)["x_shape"] = x.shape
        h, w = x.shape[-2], x.shape[-1]
        if h > self.height or w > self.width:
            x = x[..., :min(h, self.height), :min(w, self.width)]
            h, w = x.shape[-2], x.shape[-1]
        if self.training:
            self._bufs[n]["crop_shape"] = x.shape
        if h < self.height or w < self.width:
            pad = [(0, 0)] * (x.ndim - 2)
            pad += [(0, self.height - h), (0, self.width - w)]
            x = np.pad(x, pad)
        return x

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        s = self._bufs[n]
        crop_shape, x_shape = s["crop_shape"], s["x_shape"]
        ch, cw = crop_shape[-2], crop_shape[-1]
        if g.shape != crop_shape:                    # un-pad: slice
            g = g[..., :ch, :cw]
        if crop_shape != x_shape:                    # un-crop: scatter
            gx = np.zeros(x_shape)
            gx[..., :ch, :cw] = g
            return gx
        return g


# ----------------------------------------------------------------------
# Lowerings for the repro.nn.layers zoo
# ----------------------------------------------------------------------

@register_lowering(L.Identity)
def _lower_identity(layer, ctx):
    pass


@register_lowering(L.Dropout)
def _lower_dropout(layer, ctx):
    peers = ctx.peers()
    if ctx.training and any(lay.p > 0.0 for lay in peers):
        ctx.emit(DropoutStep(peers, ctx.k),
                 f"Dropout(p={layer.p}): cached masks")


@register_lowering(L.Linear)
def _lower_linear(layer, ctx):
    ctx.emit(AffineStep(ctx.peers(), ctx.training, ctx.k), "Linear: affine")


@register_lowering(L.ReLU, L.Tanh, L.Sigmoid, L.LeakyReLU)
def _lower_activation(layer, ctx):
    ctx.emit(ActStep(act_kind(layer), ctx.training, ctx.k),
             f"{type(layer).__name__}: activation")


@register_lowering(L.BatchNorm1d)
def _lower_batchnorm(layer, ctx):
    ctx.emit(BatchNormStep(ctx.peers(), ctx.training, ctx.k),
             "BatchNorm1d: batch stats + running update" if ctx.training
             else "BatchNorm1d: running stats")


@register_lowering(L.LayerNorm)
def _lower_layernorm(layer, ctx):
    ctx.emit(LayerNormStep(ctx.peers(), ctx.training, ctx.k),
             "LayerNorm: trailing-axis stats")


@register_lowering(L.Standardize)
def _lower_standardize(layer, ctx):
    ctx.emit(StandardizeStep(ctx.peers(), ctx.training, ctx.k),
             "Standardize: affine constants")


@register_lowering(L.Destandardize)
def _lower_destandardize(layer, ctx):
    ctx.emit(DestandardizeStep(ctx.peers(), ctx.training, ctx.k),
             "Destandardize: affine constants")


@register_lowering(L.Flatten)
def _lower_flatten(layer, ctx):
    ctx.emit(FlattenStep(layer.start_dim, ctx.training, ctx.k),
             "Flatten: reshape")


@register_lowering(L.Conv2d)
def _lower_conv2d(layer, ctx):
    ctx.emit(Conv2dStep(layer, ctx.training), "Conv2d: im2col")


@register_lowering(L.Conv1d)
def _lower_conv1d(layer, ctx):
    ctx.emit(Conv1dStep(layer, ctx.training), "Conv1d: im2col")


@register_lowering(L.MaxPool2d)
def _lower_maxpool2d(layer, ctx):
    ctx.emit(MaxPool2dStep(layer.kernel_size, layer.stride, ctx.training),
             "MaxPool2d: strided view")


@register_lowering(L.MaxPool1d)
def _lower_maxpool1d(layer, ctx):
    ctx.emit(MaxPool1dStep(layer.kernel_size, layer.stride, ctx.training),
             "MaxPool1d: strided view")


@register_lowering(L.AvgPool2d)
def _lower_avgpool2d(layer, ctx):
    ctx.emit(AvgPool2dStep(layer.kernel_size, layer.stride, ctx.training),
             "AvgPool2d: strided view")


@register_lowering(L.CropPad2d)
def _lower_croppad2d(layer, ctx):
    ctx.emit(CropPad2dStep(layer.height, layer.width, ctx.training),
             "CropPad2d: slice/pad")


# ----------------------------------------------------------------------
# Stacked plans: K same-fingerprint members behind one member axis
# ----------------------------------------------------------------------

def _source_segments(steps, kind: str, base: int = 0):
    """Segment table laying the steps' declared per-member tensors of
    one ``kind`` (``"param"`` | ``"const"``) end to end in a slab row,
    from column ``base``: ``(step, si, lo, hi, shape)`` per tensor
    (``si`` indexes the step's ``<kind>_sources()``), plus the end
    column."""
    segs = []
    offset = base
    for step in steps:
        for si, src in enumerate(getattr(step, kind + "_sources")()):
            arr0 = getattr(*src[0])
            if arr0.dtype != np.float64:
                raise UnsupportedLayerError(
                    "stacked plans require float64 member tensors")
            segs.append((step, si, offset, offset + arr0.size, arr0.shape))
            offset += arr0.size
    return tuple(segs), offset


def _fill_slab_row(slab, row: int, segs, kind: str) -> list:
    """Copy row ``row``'s live tensors into its slab row, derived
    constants derived first, rounded once to the slab dtype on the way
    (:meth:`LoweringContext.emit`'s rule); returns their
    ``(holder, attr, array)`` staleness-watch entries."""
    watch = []
    for step, si, lo, hi, shape in segs:
        holder, attr = getattr(step, kind + "_sources")()[si][row]
        arr = getattr(holder, attr)
        if arr.shape != shape:
            raise UnsupportedLayerError(
                f"member {row} tensor {attr} changed shape "
                f"{shape} -> {arr.shape}")
        value = step.derive_const(si, arr) if kind == "const" else arr
        slab[row, lo:hi] = value.reshape(-1)
        watch.append((holder, attr, arr))
    return watch


def _bind_slabs(steps, psegs, pslab, csegs, cslab, grads=None) -> None:
    """Bind every step to ``(K, *shape)`` views of the filled slabs
    (and of the gradient slab, laid out like ``pslab``)."""
    def views(step, segs, slab):
        return [slab[:, lo:hi].reshape(slab.shape[:1] + shape)
                for s2, _si, lo, hi, shape in segs if s2 is step]

    for step in steps:
        pviews = views(step, psegs, pslab)
        cviews = views(step, csegs, cslab)
        if pviews:
            step.bind_params(pviews)
            if grads is not None:
                step.bind_grads(views(step, psegs, grads))
        if cviews:
            step.bind_consts(cviews)


def _compile_watch_check(watch, struct_watch=()):
    """``check() -> bool``: whether any ``(holder, attr, array)`` of
    ``watch`` no longer holds its array, or any ``(weakref to a
    Sequential, its layer list, its length)`` of ``struct_watch`` saw
    the Sequential die, rebind its list or change its length —
    generated, so the sweep is attribute reads and identity tests in one
    frame."""
    scope, terms = {}, []
    for i, (holder, attr, arr) in enumerate(watch):
        scope[f"h{i}"], scope[f"a{i}"] = holder, arr
        terms.append(f"h{i}.{attr} is not a{i}")
    for i, (ref, layer_list, n_layers) in enumerate(struct_watch):
        scope[f"r{i}"], scope[f"l{i}"] = ref, layer_list
        terms.append(f"(s{i} := r{i}()) is None or s{i}.layers is not l{i} "
                     f"or len(l{i}) != {n_layers}")
    return generate("check", "def check():\n    return "
                    f"{' or '.join(terms) or 'False'}", scope)


class _StackedEntry:
    """The plan-entry decision of a stacked plan: is an input one
    ``(B, *features)`` batch shared by every member, or one batch per
    member, ``(rows, B, *features)``?  Decided here, once per input
    shape, from what the plan's first steps accept: a member's input
    reaches the first width-fixing step through a leading
    ``Flatten(start_dim)`` (``None`` without one — stacked kernels are
    ``(B, F)`` per member) onto ``width`` trailing features (``None``
    when no step fixes it).  Steps only ever see a stream with a
    leading member axis.
    """

    __slots__ = ("start_dim", "width", "seen")

    def __init__(self, steps):
        self.start_dim = self.width = None
        #: Input shape -> ``(B, shared)`` for the shapes admitted so far.
        self.seen: dict = {}
        for step in steps:
            if isinstance(step, FlattenStep):
                if self.start_dim is None:
                    self.start_dim = step.start_dim
                continue
            sources = step.param_sources() or step.const_sources()
            if sources:
                self.width = getattr(*sources[0][0]).shape[-1]
                break

    def _fits(self, member: tuple) -> bool:
        """``member`` is one member's ``(B, *features)``."""
        cut = self.start_dim
        if cut is not None and len(member) > cut:
            member = member[:cut] + (math.prod(member[cut:]),)
        return len(member) == 2 and self.width in (None, member[1])

    def admit(self, shape: tuple, rows: int, scratch_owners) -> tuple:
        """First call at ``shape`` against ``rows`` stacked members:
        decide (or raise ``ValueError`` naming the accepted shapes),
        remember, and account for the scratch the new batch size will
        take — past 16 shapes everything in ``scratch_owners`` is
        cleared."""
        if len(shape) >= 3 and shape[0] == rows and self._fits(shape[1:]):
            entry = shape[1], False
        elif self._fits(shape):
            entry = shape[0], True
        else:
            feats = "F" if self.width is None else str(self.width)
            if self.start_dim is not None:
                feats = f"*features flattening to {feats}"
            raise ValueError(
                f"fleet plan over {rows} members accepts a shared "
                f"(B, {feats}) batch or a stacked ({rows}, B, {feats}) "
                f"batch, got {shape}")
        if len(self.seen) > 16:
            for owner in scratch_owners:
                owner.clear()
            self.seen.clear()
        self.seen[shape] = entry
        return entry


class FleetPlan:
    """Stacked inference over K same-fingerprint models.

    One flat ``(K, n_slab)`` weight slab (float64 by default; pass
    ``dtype=np.float32`` for a narrowed slab that halves the memory
    traffic of the bandwidth-bound K-row GEMMs) holds every member's
    parameters *and* frozen constants, rounded as its own plan at that
    dtype binds them; steps hold ``(K, *shape)`` views
    into it, so hot-swapping member ``k`` is one row-slice copy
    (:meth:`replace_member`) and the next stacked forward reads the new
    weights — no rebuild, no other member disturbed.

    ``__call__`` accepts a shared ``(B, *features)`` input (broadcast
    to every member) or a stacked ``(K, B, *features)`` batch and
    returns ``(K, B, *out)`` stacked outputs; row ``k`` is
    bitwise-equal to member ``k``'s own compiled forward.  Any other
    shape raises ``ValueError``.
    """

    __slots__ = ("k", "dtype", "fingerprint", "summary", "n_layers",
                 "n_fused", "slab", "n_slab", "_steps", "_psegs", "_csegs",
                 "_watch", "_stale", "_entry", "_bodies")

    def __init__(self, models, dtype=np.float64):
        models = list(models)
        ctx, _struct, n_layers = lower_fleet(models, False, dtype)
        self.dtype = ctx.dtype
        self.k = ctx.k
        self.fingerprint = fleet_fingerprint(models[0], extra=("infer",))
        self.summary = tuple(ctx.summary)
        self.n_layers = n_layers
        self.n_fused = ctx.n_fused
        self._steps = ctx.steps
        self._entry = _StackedEntry(self._steps)
        self._bodies = _PlanBodies().own(self._steps)
        self._psegs, n_params = _source_segments(self._steps, "param")
        self._csegs, self.n_slab = _source_segments(self._steps, "const",
                                                    base=n_params)
        # The slab carries the plan dtype: member tensors stay float64
        # at the source, and a narrowed plan casts exactly once per
        # member — on the row copy in :meth:`refresh_member` (which is
        # also the hot-swap path, so swapped-in weights cast on swap).
        self.slab = np.empty((self.k, self.n_slab), dtype=self.dtype)
        self._watch = [None] * self.k
        for k in range(self.k):
            self.refresh_member(k)
        _bind_slabs(self._steps, self._psegs, self.slab,
                    self._csegs, self.slab)

    # -- member staleness / hot-swap --------------------------------------
    def refresh_member(self, k: int) -> None:
        """Re-copy member ``k``'s live arrays into slab row ``k``, drop
        what the steps and bodies derived from the slab
        (:meth:`AffineStep._fleet_forward`'s full-extent constants) and
        re-arm the row's staleness watch."""
        for step in self._steps:
            step._geoms.clear()
        self._bodies.clear()
        self._stale = None
        self._watch[k] = \
            _fill_slab_row(self.slab, k, self._psegs, "param") + \
            _fill_slab_row(self.slab, k, self._csegs, "const")

    def stale(self) -> bool:
        """Whether any member is stale: one generated check over every
        member's watched tensors (rebuilt after a refresh), cheap
        enough to run before every wave."""
        check = self._stale
        if check is None:
            check = self._stale = _compile_watch_check(
                [entry for watch in self._watch for entry in watch])
        return check()

    def stale_members(self, rows) -> list:
        """The members among ``rows`` that are stale (the per-member
        sweep runs only once :meth:`stale` fires)."""
        if not self.stale():
            return []
        watch = self._watch
        stale = []
        for k in rows:
            for holder, attr, arr in watch[k]:
                if getattr(holder, attr) is not arr:
                    stale.append(k)
                    break
        return stale

    def replace_member(self, k: int, model) -> None:
        """Hot-swap member ``k`` to ``model`` (same fleet fingerprint):
        rebinds the step layer slots and copies exactly one slab row."""
        if fleet_fingerprint(model, extra=("infer",)) != self.fingerprint:
            raise UnsupportedLayerError(
                f"replacement model for member {k} has a different "
                "fleet fingerprint")
        layers = _flatten_layers(model, [])
        for step in self._steps:
            if step.layers:
                step.layers[k] = layers[step.pos]
        self.refresh_member(k)

    def member_digest(self, k: int) -> str:
        """BLAKE2b digest of member ``k``'s slab row (memo identity)."""
        return hashlib.blake2b(self.slab[k].tobytes(),
                               digest_size=16).hexdigest()

    # -- execution ---------------------------------------------------------
    def __call__(self, x) -> np.ndarray:
        if type(x) is np.ndarray:
            try:
                body = self._bodies[x.shape, x.dtype]
            except KeyError:
                body = None
            if body is not None:
                return body(x)
        return self._serve(x)

    def _serve(self, x) -> np.ndarray:
        """The steps' stacked forwards (:meth:`_PlanBodies.serve`)."""
        x = np.asarray(x)
        cast = None if x.dtype == self.dtype else self.dtype
        h = x if cast is None else x.astype(cast)
        try:
            n, shared = self._entry.seen[h.shape]
        except KeyError:
            n, shared = self._entry.admit(h.shape, self.k, (self,))
        return self._bodies.serve(self._steps, (x.shape, x.dtype),
                                  h[None] if shared else h, n, cast, shared)

    def clear(self) -> None:
        """Drop every step's scratch and every body (past 16 input
        shapes)."""
        for step in self._steps:
            step.clear()
        self._bodies.clear()

    def __repr__(self):
        return (f"FleetPlan(k={self.k}, steps={len(self._steps)}, "
                f"fingerprint={self.fingerprint[:8]})")
