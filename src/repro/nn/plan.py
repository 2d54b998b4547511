"""Unified plan IR: one lowering pipeline for compiled inference + training.

PRs 1 and 4 grew two parallel compilers — ``compile.py`` walked the
layer list and emitted forward closures, ``compile_train.py`` walked it
again and emitted forward/backward step objects — and every new layer
lowering had to be written (and kept numerically honest) twice.  This
module is the single pipeline both are now built on:

* **Step IR** — a compiled plan is a flat list of :class:`PlanStep`
  objects over raw ndarrays.  Every step owns its per-batch-size
  scratch table and implements ``forward(x, n)``; training-capable
  steps also implement ``backward(g, n, need_gx)`` and write parameter
  gradients straight into views of the plan's flat gradient buffer.
* **Lowering registry** — each layer type registers exactly one
  ``lower(layer, ctx)`` entry (:func:`register_lowering`).  The
  :class:`LoweringContext` tells the lowering whether it is emitting
  for inference or training (``ctx.training``), hands it fusion
  (peeking/consuming a following activation), parameter registration
  and staleness-watch bookkeeping.  ``compile_inference`` is "lower +
  run forward steps"; ``compile_training`` is "lower + forward/backward
  + loss + fused optimizer" — neither owns per-layer emitters anymore.
  Lowerings for the :mod:`repro.nn.layers` zoo live at the bottom of
  this module; recurrent layers register theirs from
  :mod:`repro.nn.recurrent` (imported by the package ``__init__``), so
  out-of-tree layers can plug into both compilers with one entry.
* **Structural fingerprints** — :func:`structural_fingerprint` digests
  a model's layer/parameter structure (shapes, hyperparameters — not
  weight values).  Plans carry it so callers can tell "recompiled, same
  structure" (hot-swap, ``load_state_dict``) from "different model":
  fused-optimizer moments survive the former (warm restarts), engines
  re-adopt warm scratch buffers, and the :class:`~repro.nn.Trainer`
  compile-failure latch is keyed on it.

Numerical contract: training-mode steps replay the autodiff graph's
exact op sequence (same formulas, same association where it matters),
so compiled gradients match the graph to <= 1e-10; inference-mode steps
match the eval-mode graph path to the same tolerance as before.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from . import functional as F
from . import layers as L

__all__ = [
    "UnsupportedLayerError", "PlanStep", "LoweringContext",
    "register_lowering", "lowering_for", "lower_model",
    "narrow_plan_steps", "structural_fingerprint", "loss_token",
    "FleetStep", "FleetLoweringContext", "register_fleet_lowering",
    "fleet_lowering_for", "lower_fleet", "fleet_fingerprint", "FleetPlan",
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


def structural_fingerprint(model: L.Module, extra=()) -> str:
    """Digest of the model's *structure*: layer types, parameter shapes
    and scalar hyperparameters — everything that determines a compiled
    plan's step sequence and flat-buffer layout, and nothing that an
    optimizer step or ``load_state_dict`` changes.  Two models with
    equal fingerprints lower to interchangeable plans (same scratch
    shapes, same gradient layout), which is what makes warm-restarting
    optimizer moments across a recompile safe.
    """
    parts: list = []
    _describe(model, parts)
    parts.extend(str(e) for e in extra)
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


#: Per-member-tunable attributes masked out of fleet fingerprints:
#: members of one fleet may differ here without changing the stacked
#: step sequence or any buffer layout.
_FLEET_FINGERPRINT_MASK = ((L.Dropout, "p"),)


def fleet_fingerprint(model: L.Module, extra=()) -> str:
    """:func:`structural_fingerprint` with per-member-tunable scalar
    hyperparameters masked (currently ``Dropout.p``): two models whose
    fleet fingerprints agree lower to the *same* batched step sequence
    with the same slab layout, even though their dropout rates — which
    the batched kernel carries as a per-member ``(K, 1, 1)`` keep
    column — differ.  Everything else (layer types, parameter shapes,
    activation slopes, normalization eps) still participates, so a
    mismatch anywhere that would change a kernel refuses to group.
    """
    parts: list = []
    _describe(model, parts, skip=_FLEET_FINGERPRINT_MASK)
    parts.extend(str(e) for e in extra)
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


def loss_token(loss_fn) -> str:
    """Stable identity token for a loss callable (plain or partial)."""
    import functools
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
    ``grad_params`` lists the step's trainable parameters in
    ``named_parameters`` order; the training plan binds matching views
    of its flat gradient buffer via :meth:`bind_grads`.
    """

    __slots__ = ("_bufs", "training")
    #: Parameters whose gradients this step writes (training mode).
    grad_params: tuple = ()

    def __init__(self, training: bool = False):
        self._bufs: dict = {}
        self.training = training

    def scratch(self, n: int) -> dict:
        s = self._bufs.get(n)
        if s is None:
            s = self._bufs[n] = {}
        return s

    def clear(self) -> None:
        self._bufs.clear()

    def bind_grads(self, views) -> None:  # pragma: no cover - interface
        raise UnsupportedLayerError(
            f"{type(self).__name__} does not take gradients")

    def forward(self, x, n):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, g, n, need_gx):  # pragma: no cover - abstract
        raise NotImplementedError

    def inference_fn(self):
        """Optionally return a specialized ``fwd(x, n)`` closure for
        inference plans.  Hot steps (affine, standardize) close over
        their constants and keep single-call dispatch at the PR-1
        closure cost; the default ``None`` means "use ``forward``".
        Must share :attr:`_bufs` so :meth:`clear` stays effective.
        """
        return None


def _buf(s: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    arr = s.get(key)
    if arr is None or arr.shape != shape or arr.dtype != dtype:
        arr = s[key] = np.empty(shape, dtype=dtype)
    return arr


# ----------------------------------------------------------------------
# Activation kernels (forward in place, backward from stashed output)
# ----------------------------------------------------------------------

#: 0-d operand: saves the per-call scalar->array conversion in ufuncs.
_ZERO = np.zeros(())


def _relu_in(buf, _zero=_ZERO):
    np.maximum(buf, _zero, out=buf)


def _tanh_in(buf):
    np.tanh(buf, out=buf)


def _sigmoid_in(buf):
    # 1 / (1 + exp(-x)), the Tensor.sigmoid formula, fully in place.
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    np.reciprocal(buf, out=buf)


# Out-of-place variants (single sweep, no input mutation) for the
# standalone-activation inference fast path.

def _relu_out(x, buf, _zero=_ZERO):
    np.maximum(x, _zero, out=buf)


def _tanh_out(x, buf):
    np.tanh(x, out=buf)


def _sigmoid_out(x, buf):
    np.negative(x, out=buf)
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

    ``training`` selects the lowering mode.  Lowerings append steps via
    :meth:`emit`, fuse a following activation via :meth:`peek` /
    :meth:`fuse_next`, and register staleness watches and (in training
    mode) trainable parameters.
    """

    __slots__ = ("training", "steps", "watch", "summary", "n_fused",
                 "_layers", "_pos")

    def __init__(self, layers, training: bool):
        self.training = training
        self.steps: list = []
        self.watch: list = []
        self.summary: list = []
        self.n_fused = 0
        self._layers = layers
        self._pos = 0

    # -- walk ------------------------------------------------------------
    def peek(self):
        """The layer following the one being lowered, if any."""
        nxt = self._pos + 1
        return self._layers[nxt] if nxt < len(self._layers) else None

    def fuse_next(self) -> None:
        """Consume the next layer (it was fused into the current step)."""
        self._pos += 1
        self.n_fused += 1

    # -- emission --------------------------------------------------------
    def emit(self, step, note: str) -> None:
        self.steps.append(step)
        self.summary.append(note)

    def note(self, note: str) -> None:
        """Record a summary line without emitting a step (skipped layers)."""
        self.summary.append(note)

    # -- bookkeeping -----------------------------------------------------
    def watch_attr(self, obj, name: str) -> None:
        self.watch.append((obj, name, getattr(obj, name)))

    def watch_params(self, layer) -> None:
        for _name, p in layer.named_parameters():
            self.watch.append((p, "data", p.data))

    def add_param(self, p) -> None:
        """Register a trainable parameter (training mode): validates the
        layout the flat gradient buffer requires and watches rebinds."""
        if p.data.dtype != np.float64 or not p.data.flags["C_CONTIGUOUS"]:
            raise UnsupportedLayerError(
                "compiled training requires contiguous float64 parameters")
        self.watch.append((p, "data", p.data))

    def unsupported(self, layer, why: str | None = None):
        mode = "training" if self.training else "inference"
        reason = why or f"no compiled {mode} lowering for " \
                        f"{type(layer).__name__}"
        raise UnsupportedLayerError(reason)


def lower_model(model: L.Module, training: bool):
    """Lower ``model`` through the registry; returns the filled context
    plus the structural watch list.  Raises
    :class:`UnsupportedLayerError` for layers without an entry (or whose
    entry rejects the requested mode) — callers fall back to the graph.
    """
    struct_watch: list = []
    layers = _flatten_layers(model, struct_watch)
    ctx = LoweringContext(layers, training)
    while ctx._pos < len(layers):
        layer = layers[ctx._pos]
        fn = lowering_for(layer)
        if fn is None:
            raise UnsupportedLayerError(
                f"no compiled lowering for {type(layer).__name__}")
        fn(layer, ctx)
        ctx._pos += 1
    return ctx, struct_watch, len(layers)


# ----------------------------------------------------------------------
# Steps shared by both modes
# ----------------------------------------------------------------------

class AffineStep(PlanStep):
    """Fused ``z = act(x @ W.T + b)``.

    Training backward: ``dz = g * act'(z)`` in place on the incoming
    gradient buffer, then ``gW = dz.T @ x`` and ``gb = dz.sum(0)``
    straight into the plan's flat gradient buffer, and ``gx = dz @ W``
    into step scratch (skipped for the plan's first parameterized
    step).  3-D activations (GRU ``return_sequence=True`` feeding a
    head affine) train through the same kernel: the forward is a
    batched ``np.matmul`` over the leading axes and the weight gradient
    collapses the leading axes into one flattened GEMM — the same sum
    the graph path accumulates per batch entry, within 1e-10.
    Inference forward additionally handles non-2-D inputs and
    non-float64 dtypes (correctness over speed on those rare shapes).
    """

    __slots__ = ("w", "wt", "bias", "b_row", "act", "slope", "gw", "gb",
                 "grad_params", "_narrow")

    def __init__(self, layer, act, training):
        super().__init__(training)
        self.w = layer.weight.data
        self.wt = self.w.T                 # view: in-place updates flow
        self.bias = layer.bias.data if layer.bias is not None else None
        self.b_row = self.bias.reshape(1, -1) if self.bias is not None \
            else None
        if act is None:
            self.act, self.slope = None, 0.0
        else:
            self.act, self.slope = act
        self.gw = self.gb = None
        self.grad_params = (layer.weight, layer.bias) \
            if layer.bias is not None else (layer.weight,)
        self._narrow = self.w.dtype != np.float64

    def bind_grads(self, views):
        self.gw = views[0]
        self.gb = views[1] if len(views) > 1 else None

    def forward(self, x, n):
        if x.ndim != 2:
            if self.training:
                s = self.scratch(n)
                z = s.get("z")
                shape = x.shape[:-1] + (self.wt.shape[1],)
                if z is None or z.shape != shape:
                    z = s["z"] = np.empty(shape)
                np.matmul(x, self.wt, out=z)
                if self.b_row is not None:
                    np.add(z, self.bias, out=z)
                if self.act is not None:
                    _act_forward(self.act, self.slope, z, s)
                s["x"] = x
                return z
            y = np.matmul(x, self.wt)      # rare inference shapes
            if self.bias is not None:
                y = y + self.bias
            if self.act is not None:
                _act_forward(self.act, self.slope, y, {})
            return y
        s = self.scratch(n)
        z = s.get("z")
        # With float64 weights the result dtype is float64 for any
        # input, so only non-f64 weights need the per-call dtype check.
        if z is None or z.shape[0] != x.shape[0] or \
                (self._narrow and
                 z.dtype != np.result_type(x.dtype, self.w.dtype)):
            z = s["z"] = np.empty(
                (x.shape[0], self.wt.shape[1]),
                dtype=np.result_type(x.dtype, self.w.dtype))
        np.dot(x, self.wt, out=z)
        if self.b_row is not None:
            np.add(z, self.b_row, out=z)
        if self.act is not None:
            _act_forward(self.act, self.slope, z, s)
        if self.training:
            s["x"] = x
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        if self.act is not None:
            _act_backward(self.act, self.slope, g, s["z"], s)
        x = s["x"]
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

    def inference_fn(self):
        # Leaky needs mask scratch; its generic path is fine (rare in
        # deployed shapes, which fuse ReLU/Tanh/Sigmoid).
        if self.training or self.act == "leaky":
            return None
        bufs = self._bufs                  # z cached directly per batch
        w, wt, b_row = self.w, self.wt, self.b_row
        narrow = self._narrow
        out_features = wt.shape[1]
        act = {None: None, "relu": _relu_in, "tanh": _tanh_in,
               "sigmoid": _sigmoid_in}[self.act]
        generic = self.forward

        def fwd(x, n, dot=np.dot, add=np.add, empty=np.empty,
                result_type=np.result_type):
            if x.ndim != 2:
                return generic(x, n)       # rare shapes
            z = bufs.get(n)
            if z is None or z.shape[0] != x.shape[0] or \
                    (narrow and z.dtype != result_type(x.dtype, w.dtype)):
                z = bufs[n] = empty((x.shape[0], out_features),
                                    dtype=result_type(x.dtype, w.dtype))
            dot(x, wt, out=z)
            if b_row is not None:
                add(z, b_row, out=z)
            if act is not None:
                act(z)
            return z

        return fwd


class ActStep(PlanStep):
    """Standalone activation (not fused behind an affine/conv step)."""

    __slots__ = ("act", "slope")

    def __init__(self, act, training):
        super().__init__(training)
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

    def inference_fn(self):
        # Single out-of-place sweep (the PR-1 kernels) instead of
        # copy-then-in-place; leaky keeps the generic path (needs mask
        # scratch).
        if self.training or self.act == "leaky":
            return None
        bufs = self._bufs
        act = {"relu": _relu_out, "tanh": _tanh_out,
               "sigmoid": _sigmoid_out}[self.act]

        def fwd(x, n, empty_like=np.empty_like):
            z = bufs.get(n)
            if z is None or z.shape != x.shape or z.dtype != x.dtype:
                z = bufs[n] = empty_like(x)
            act(x, z)
            return z

        return fwd


class DropoutStep(PlanStep):
    """Inverted dropout with cached mask buffers (training mode only;
    inference lowers dropout to identity).

    Draws from the layer's own RNG with ``Generator.random(out=...)``,
    which consumes exactly the same stream as the graph path's
    ``rng.random(x.shape)`` — fixed-seed training is bit-for-bit
    reproducible across the two paths.
    """

    __slots__ = ("layer", "keep")

    def __init__(self, layer):
        super().__init__(True)
        self.layer = layer
        self.keep = 1.0 - layer.p

    def forward(self, x, n):
        s = self.scratch(n)
        r = _buf(s, "r", x.shape)
        self.layer.rng.random(out=r)
        mb = _buf(s, "mask_bool", x.shape, dtype=bool)
        np.less(r, self.keep, out=mb)
        m = _buf(s, "mask", x.shape)
        np.divide(mb, self.keep, out=m)
        z = _buf(s, "z", x.shape)
        np.multiply(x, m, out=z)
        return z

    def backward(self, g, n, need_gx):
        np.multiply(g, self._bufs[n]["mask"], out=g)
        return g


class BatchNormStep(PlanStep):
    """BatchNorm1d: batch stats + running updates in training mode,
    frozen running stats in inference mode.

    The training forward mirrors the graph ops (``mean = sum * (1/n)``,
    biased variance); the backward is the classic batch-norm adjoint
    derived from those exact ops — gradient flows through the batch
    mean and variance as well as the normalized activations.
    """

    __slots__ = ("layer", "gw", "gb", "grad_params")

    def __init__(self, layer, training):
        super().__init__(training)
        self.layer = layer
        self.gw = self.gb = None
        self.grad_params = (layer.weight, layer.bias)

    def bind_grads(self, views):
        self.gw, self.gb = views

    def forward(self, x, n):
        lay = self.layer
        if not self.training:
            mu = lay.running_mean.reshape(1, -1)
            denom = np.sqrt(lay.running_var.reshape(1, -1) + lay.eps)
            return (x - mu) / denom * lay.weight.data + lay.bias.data
        if x.ndim != 2:
            raise UnsupportedLayerError(
                f"BatchNorm1d expects (N, F) inputs, got {x.shape}")
        s = self.scratch(n)
        inv_n = 1.0 / n
        mu = x.sum(axis=0, keepdims=True) * inv_n
        c = _buf(s, "c", x.shape)
        np.subtract(x, mu, out=c)
        sq = _buf(s, "sq", x.shape)
        np.multiply(c, c, out=sq)
        var = sq.sum(axis=0, keepdims=True) * inv_n
        # Rebinding assignments, exactly like the graph path (so any
        # inference plan watching the running stats goes stale too).
        lay.running_mean = ((1 - lay.momentum) * lay.running_mean
                            + lay.momentum * mu.ravel())
        lay.running_var = ((1 - lay.momentum) * lay.running_var
                           + lay.momentum * var.ravel())
        std = np.sqrt(var + lay.eps)
        norm = _buf(s, "norm", x.shape)
        np.divide(c, std, out=norm)
        z = _buf(s, "z", x.shape)
        np.multiply(norm, lay.weight.data, out=z)
        np.add(z, lay.bias.data, out=z)
        s["std"] = std
        s["inv_n"] = inv_n
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        c, sq, norm, std = s["c"], s["sq"], s["norm"], s["std"]
        inv_n = s["inv_n"]
        np.multiply(g, norm, out=sq)           # sq reused as scratch
        np.add.reduce(sq, axis=0, out=self.gw)
        np.add.reduce(g, axis=0, out=self.gb)
        dn = _buf(s, "dn", g.shape)
        np.multiply(g, self.layer.weight.data, out=dn)
        # d std via norm = c / std (the truediv adjoint, unbroadcast).
        np.multiply(dn, c, out=sq)
        np.negative(sq, out=sq)
        np.divide(sq, std * std, out=sq)
        dstd = sq.sum(axis=0, keepdims=True)
        dvar = dstd * 0.5 / std
        np.divide(dn, std, out=dn)             # dn = dc (from norm)
        gci = dvar * inv_n
        np.multiply(c, gci, out=sq)
        np.add(sq, sq, out=sq)                 # 2 * c * dvar / n
        np.add(dn, sq, out=dn)                 # total dc
        if not need_gx:
            return None
        dmu = dn.sum(axis=0, keepdims=True)
        np.negative(dmu, out=dmu)
        np.multiply(dmu, inv_n, out=dmu)
        gx = _buf(s, "gx", g.shape)
        np.add(dn, dmu, out=gx)
        return gx


class LayerNormStep(PlanStep):
    """LayerNorm over the trailing axis.

    Training mode mirrors :class:`BatchNormStep`'s adjoint structure
    with the reduction moved to the trailing axis (per-row statistics,
    no running state): the forward replays the graph ops (``mean =
    sum * (1/d)``, biased variance, ``(var + eps).sqrt()``), the
    backward flows gradient through the row mean and variance exactly
    as the Tensor adjoints compose.
    """

    __slots__ = ("layer", "gw", "gb", "grad_params")

    def __init__(self, layer, training: bool = False):
        super().__init__(training)
        self.layer = layer
        self.gw = self.gb = None
        self.grad_params = (layer.weight, layer.bias) if training else ()

    def bind_grads(self, views):
        self.gw, self.gb = views

    def forward(self, x, n):
        lay = self.layer
        d = x.shape[-1]
        if not self.training:
            # Matches Tensor.mean/var: sum * (1/n), biased variance.
            mu = x.sum(axis=-1, keepdims=True) * (1.0 / d)
            centered = x - mu
            var = (centered * centered).sum(axis=-1, keepdims=True) \
                * (1.0 / d)
            return centered / np.sqrt(var + lay.eps) * lay.weight.data \
                + lay.bias.data
        s = self.scratch(n)
        inv_d = 1.0 / d
        mu = x.sum(axis=-1, keepdims=True) * inv_d
        c = _buf(s, "c", x.shape)
        np.subtract(x, mu, out=c)
        sq = _buf(s, "sq", x.shape)
        np.multiply(c, c, out=sq)
        var = sq.sum(axis=-1, keepdims=True) * inv_d
        std = np.sqrt(var + lay.eps)
        norm = _buf(s, "norm", x.shape)
        np.divide(c, std, out=norm)
        z = _buf(s, "z", x.shape)
        np.multiply(norm, lay.weight.data, out=z)
        np.add(z, lay.bias.data, out=z)
        s["std"] = std
        s["inv_d"] = inv_d
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        c, sq, norm, std = s["c"], s["sq"], s["norm"], s["std"]
        inv_d = s["inv_d"]
        d_feat = self.gw.shape[0]
        np.multiply(g, norm, out=sq)           # sq reused as scratch
        np.add.reduce(sq.reshape(-1, d_feat), axis=0, out=self.gw)
        np.add.reduce(g.reshape(-1, d_feat), axis=0, out=self.gb)
        dn = _buf(s, "dn", g.shape)
        np.multiply(g, self.layer.weight.data, out=dn)
        # d std via norm = c / std (the truediv adjoint, unbroadcast).
        np.multiply(dn, c, out=sq)
        np.negative(sq, out=sq)
        np.divide(sq, std * std, out=sq)
        dstd = sq.sum(axis=-1, keepdims=True)
        dvar = dstd * 0.5 / std
        np.divide(dn, std, out=dn)             # dn = dc (from norm)
        gci = dvar * inv_d
        np.multiply(c, gci, out=sq)
        np.add(sq, sq, out=sq)                 # 2 * c * dvar / d
        np.add(dn, sq, out=dn)                 # total dc
        if not need_gx:
            return None
        dmu = dn.sum(axis=-1, keepdims=True)
        np.negative(dmu, out=dmu)
        np.multiply(dmu, inv_d, out=dmu)
        gx = _buf(s, "gx", g.shape)
        np.add(dn, dmu, out=gx)
        return gx


class StandardizeStep(PlanStep):
    """Frozen ``(x - mean) * (1/std)`` — constants, gradient is a scale."""

    __slots__ = ("mean", "inv_std")

    def __init__(self, layer, training):
        super().__init__(training)
        self.mean = layer.mean
        self.inv_std = 1.0 / layer.std

    def forward(self, x, n):
        s = self.scratch(n)
        z = s.get("z")
        dtype = np.result_type(x.dtype, self.mean.dtype)
        if z is None or z.shape != x.shape or z.dtype != dtype:
            z = s["z"] = np.empty(x.shape, dtype=dtype)
        np.subtract(x, self.mean, out=z)
        np.multiply(z, self.inv_std, out=z)
        return z

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        np.multiply(g, self.inv_std, out=g)
        return g

    def inference_fn(self):
        if self.training:
            return None
        bufs = self._bufs
        mean, inv_std = self.mean, self.inv_std
        mdtype = mean.dtype

        def fwd(x, n, sub=np.subtract, mul=np.multiply,
                empty=np.empty, result_type=np.result_type):
            z = bufs.get(n)
            dtype = result_type(x.dtype, mdtype)
            if z is None or z.shape != x.shape or z.dtype != dtype:
                z = bufs[n] = empty(x.shape, dtype=dtype)
            sub(x, mean, out=z)
            mul(z, inv_std, out=z)
            return z

        return fwd


class DestandardizeStep(PlanStep):
    """Frozen ``x * std + mean`` output head."""

    __slots__ = ("mean", "std")

    def __init__(self, layer, training):
        super().__init__(training)
        self.mean = layer.mean
        self.std = layer.std

    def forward(self, x, n):
        s = self.scratch(n)
        z = s.get("z")
        dtype = np.result_type(x.dtype, self.std.dtype)
        if z is None or z.shape != x.shape or z.dtype != dtype:
            z = s["z"] = np.empty(x.shape, dtype=dtype)
        np.multiply(x, self.std, out=z)
        np.add(z, self.mean, out=z)
        return z

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        np.multiply(g, self.std, out=g)
        return g

    def inference_fn(self):
        if self.training:
            return None
        bufs = self._bufs
        mean, std = self.mean, self.std
        sdtype = std.dtype

        def fwd(x, n, add=np.add, mul=np.multiply,
                empty=np.empty, result_type=np.result_type):
            z = bufs.get(n)
            dtype = result_type(x.dtype, sdtype)
            if z is None or z.shape != x.shape or z.dtype != dtype:
                z = bufs[n] = empty(x.shape, dtype=dtype)
            mul(x, std, out=z)
            add(z, mean, out=z)
            return z

        return fwd


class FlattenStep(PlanStep):
    __slots__ = ("start_dim",)

    def __init__(self, start_dim, training):
        super().__init__(training)
        self.start_dim = start_dim

    def forward(self, x, n):
        if self.training:
            self.scratch(n)["shape"] = x.shape
        return x.reshape(x.shape[:self.start_dim] + (-1,))

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        return g.reshape(self._bufs[n]["shape"])


# ----------------------------------------------------------------------
# Convolution steps (im2col + GEMM, backward mirrors functional.conv2d)
# ----------------------------------------------------------------------

class Conv2dStep(PlanStep):
    """2-D cross-correlation.  Forward issues the GEMM of
    ``functional.conv2d`` — same operands, shapes and layouts, which is
    what keeps compiled fp64 bitwise-equal to the graph — but gathers
    its columns and writes its results in per-batch-size scratch, so a
    steady-state call allocates no array (see :meth:`_scratch_for`).
    Training backward replays the ``conv2d`` adjoint exactly — ``gW``
    from the gathered columns, ``gx`` via ``col2im``.  A following
    activation is fused in place.

    The returned array and the stashed ``cols``/``out`` are the reused
    buffers: valid until the next forward at the same batch size.

    :class:`Conv1dStep` reuses this machinery through the same
    unit-height reshape route ``functional.conv1d`` takes, overriding
    only the window geometry and the 3-D <-> 4-D lift/lower hooks.
    """

    __slots__ = ("layer", "wmat_t", "bias4", "act", "slope", "gw", "gb",
                 "grad_params", "kh", "kw", "padding")

    def __init__(self, layer, act, training):
        super().__init__(training)
        self.layer = layer
        c_out = layer.weight.data.shape[0]
        self.wmat_t = layer.weight.data.reshape(c_out, -1).T  # param view
        self.bias4 = layer.bias.data.reshape(1, -1, 1, 1) \
            if layer.bias is not None else None               # param view
        if act is None:
            self.act, self.slope = None, 0.0
        else:
            self.act, self.slope = act
        self.gw = self.gb = None
        self.grad_params = (layer.weight, layer.bias) \
            if layer.bias is not None else (layer.weight,)
        self.kh = self.kw = layer.kernel_size
        self.padding = getattr(layer, "padding", 0)

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
        per-sample gather index in ``functional.im2col``'s
        ``(oh, ow, C, kh, kw)`` column order, and the cols / NHWC / NCHW
        outputs.  The index addresses one padded sample, so its size
        does not grow with the batch.
        """
        (n, c, h, w), dtype = geom
        kh, kw, stride, p = self.kh, self.kw, self.layer.stride, self.padding
        hp, wp = h + 2 * p, w + 2 * p
        oh = F.conv_output_size(h, kh, stride, p)
        ow = F.conv_output_size(w, kw, stride, p)
        c_out = self.wmat_t.shape[1]
        # The border is written here, once; forward overwrites only the
        # interior.
        pad = (np.zeros if p else np.empty)((n, c, hp, wp), dtype=dtype)
        ar = np.arange
        idx = ((ar(oh) * (stride * wp))[:, None, None, None, None]
               + (ar(ow) * stride)[:, None, None, None]
               + (ar(c) * (hp * wp))[:, None, None]
               + (ar(kh) * wp)[:, None]
               + ar(kw)).astype(np.intp).ravel()
        cols = np.empty((n, oh, ow, c * kh * kw), dtype=dtype)
        nhwc = np.empty((n, oh, ow, c_out),
                        dtype=np.result_type(dtype, self.wmat_t.dtype))
        out4 = np.empty((n, c_out, oh, ow), dtype=nhwc.dtype)
        out = self._lower(out4)
        # Backward's stash: references to the reused buffers.
        s["cols"] = cols
        s["out"] = out
        s["x4_shape"] = (n, c, h, w)
        conv = s["conv"] = (
            geom, pad[:, :, p:p + h, p:p + w], pad.reshape(n, c * hp * wp),
            idx, cols.reshape(n, idx.size), cols, nhwc,
            nhwc.transpose(0, 3, 1, 2), out4, out)
        return conv

    def forward(self, x, n):
        x4 = self._lift(x)
        s = self.scratch(n)
        conv = s.get("conv")
        # The plan keys scratch by batch size only: a fully-convolutional
        # model called at the same ``n`` on another grid must rebuild,
        # never gather through a stale index (``clip`` checks no bounds).
        geom = (x4.shape, x4.dtype)
        if conv is None or conv[0] != geom:
            conv = self._scratch_for(s, geom)
        _, interior, pad2, idx, cols2, cols, nhwc, nhwc_t, out4, out = conv
        np.copyto(interior, x4)
        np.take(pad2, idx, axis=1, out=cols2, mode="clip")
        np.matmul(cols, self.wmat_t, out=nhwc)     # (N, oh, ow, C_out)
        if self.bias4 is not None:
            np.add(nhwc_t, self.bias4, out=out4)
        else:
            np.copyto(out4, nhwc_t)
        if self.act is not None:
            _act_forward(self.act, self.slope, out, s)
        return out

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        if self.act is not None:
            _act_backward(self.act, self.slope, g, s["out"], s)
        lay = self.layer
        cols = s["cols"]
        c_out = self.gw.shape[0]
        # Mirrors the functional.conv2d adjoint op-for-op.
        g4 = self._lift(g)
        gmat = g4.transpose(0, 2, 3, 1).reshape(-1, c_out)
        cols_flat = cols.reshape(-1, cols.shape[-1])
        np.dot(gmat.T, cols_flat, out=self.gw.reshape(c_out, -1))
        if self.gb is not None:
            g4.sum(axis=(0, 2, 3), out=self.gb)
        if not need_gx:
            return None
        gcols = (gmat @ self.wmat_t.T).reshape(cols.shape)
        gx4 = F.col2im(gcols, s["x4_shape"], self.kh, self.kw,
                       lay.stride, self.padding)
        return self._lower(gx4)


class Conv1dStep(Conv2dStep):
    """1-D cross-correlation via the 2-D kernel with a unit height —
    the exact reshape route ``functional.conv1d`` takes, so gradients
    match the graph path bit-for-bit up to GEMM accumulation order."""

    __slots__ = ()

    def __init__(self, layer, act, training):
        super().__init__(layer, act, training)
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

class MaxPool2dStep(PlanStep):
    __slots__ = ("kernel", "stride")

    def __init__(self, kernel, stride, training):
        super().__init__(training)
        self.kernel = kernel
        self.stride = stride

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


class MaxPool1dStep(PlanStep):
    __slots__ = ("kernel", "stride")

    def __init__(self, kernel, stride, training=False):
        super().__init__(training)
        self.kernel = kernel
        self.stride = stride

    def forward(self, x, n):
        if self.kernel == 1 and not self.training:
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


class AvgPool2dStep(PlanStep):
    __slots__ = ("kernel", "stride")

    def __init__(self, kernel, stride, training=False):
        super().__init__(training)
        self.kernel = kernel
        self.stride = stride

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
    ctx.note("Identity: skipped")


@register_lowering(L.Dropout)
def _lower_dropout(layer, ctx):
    if ctx.training and layer.p > 0.0:
        ctx.emit(DropoutStep(layer), f"Dropout(p={layer.p}): cached masks")
    elif ctx.training:
        ctx.note("Dropout(p=0): skipped")
    else:
        ctx.note("Dropout: skipped (eval)")


def _lower_fusable(layer, ctx, step_cls, label):
    """Shared weight+bias lowering with a fused following activation —
    the Linear/Conv2d/Conv1d protocol (params registered, activation
    peeked and consumed, fusion counted)."""
    nxt = ctx.peek()
    act = act_kind(nxt) if nxt is not None else None
    if ctx.training:
        ctx.add_param(layer.weight)
        if layer.bias is not None:
            ctx.add_param(layer.bias)
    else:
        ctx.watch_params(layer)
    step = step_cls(layer, act, ctx.training)
    name = type(layer).__name__
    if act is not None:
        ctx.emit(step, f"{name}+{type(nxt).__name__}: fused {label}")
        ctx.fuse_next()
    else:
        ctx.emit(step, f"{name}: {label}")


@register_lowering(L.Linear)
def _lower_linear(layer, ctx):
    _lower_fusable(layer, ctx, AffineStep, "affine")


@register_lowering(L.ReLU, L.Tanh, L.Sigmoid, L.LeakyReLU)
def _lower_activation(layer, ctx):
    ctx.emit(ActStep(act_kind(layer), ctx.training),
             f"{type(layer).__name__}: activation")


@register_lowering(L.BatchNorm1d)
def _lower_batchnorm(layer, ctx):
    if ctx.training:
        ctx.add_param(layer.weight)
        ctx.add_param(layer.bias)
        ctx.emit(BatchNormStep(layer, True),
                 "BatchNorm1d: batch stats + running update")
    else:
        ctx.watch_params(layer)
        ctx.watch_attr(layer, "running_mean")
        ctx.watch_attr(layer, "running_var")
        ctx.emit(BatchNormStep(layer, False), "BatchNorm1d: running stats")


@register_lowering(L.LayerNorm)
def _lower_layernorm(layer, ctx):
    if ctx.training:
        ctx.add_param(layer.weight)
        ctx.add_param(layer.bias)
        ctx.emit(LayerNormStep(layer, True),
                 "LayerNorm: trailing-axis stats")
        return
    ctx.watch_params(layer)
    ctx.emit(LayerNormStep(layer), "LayerNorm: fused normalize")


@register_lowering(L.Standardize)
def _lower_standardize(layer, ctx):
    ctx.watch_attr(layer, "mean")
    ctx.watch_attr(layer, "std")
    ctx.emit(StandardizeStep(layer, ctx.training),
             "Standardize: affine constants")


@register_lowering(L.Destandardize)
def _lower_destandardize(layer, ctx):
    ctx.watch_attr(layer, "mean")
    ctx.watch_attr(layer, "std")
    ctx.emit(DestandardizeStep(layer, ctx.training),
             "Destandardize: affine constants")


@register_lowering(L.Flatten)
def _lower_flatten(layer, ctx):
    ctx.emit(FlattenStep(layer.start_dim, ctx.training),
             "Flatten: reshape")


@register_lowering(L.Conv2d)
def _lower_conv2d(layer, ctx):
    _lower_fusable(layer, ctx, Conv2dStep, "im2col")


@register_lowering(L.Conv1d)
def _lower_conv1d(layer, ctx):
    _lower_fusable(layer, ctx, Conv1dStep, "im2col")


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
# Mixed precision: narrowing lowered inference steps
# ----------------------------------------------------------------------

#: Inference steps a narrowed plan supports without per-step changes:
#: they hold no float64 constants, so the activation dtype flows
#: through them unchanged.
_DTYPE_TRANSPARENT_STEPS = (ActStep, FlattenStep, MaxPool1dStep,
                            MaxPool2dStep, AvgPool2dStep, CropPad2dStep)


def narrow_plan_steps(steps, dtype) -> None:
    """Cast the frozen constants of lowered *inference* steps to ``dtype``.

    This is the one cast of the mixed-precision design: weights, biases
    and standardize statistics are copied into ``dtype`` here, at
    compile time, and every hot-path kernel then runs natively in that
    dtype (the steps' existing ``result_type`` scratch logic keeps the
    activations there — no per-call casts).  The cast breaks the
    float64 plans' write-through aliasing: a narrowed plan snapshots the
    weights, so in-place parameter edits do not flow into it (rebinding
    the arrays still trips the staleness watch and recompiles).

    Steps that keep live float64 state (BatchNorm/LayerNorm running
    stats, conv im2col weights, GRU windows) are refused with
    :class:`UnsupportedLayerError` — callers fall back to the float64
    plan rather than silently promoting mid-plan.
    """
    dtype = np.dtype(dtype)
    for step in steps:
        if isinstance(step, AffineStep):
            step.w = np.ascontiguousarray(step.w, dtype=dtype)
            step.wt = step.w.T
            if step.bias is not None:
                step.bias = step.bias.astype(dtype)
                step.b_row = step.bias.reshape(1, -1)
            step._narrow = step.w.dtype != np.float64
        elif isinstance(step, StandardizeStep):
            step.mean = step.mean.astype(dtype)
            step.inv_std = step.inv_std.astype(dtype)
        elif isinstance(step, DestandardizeStep):
            step.mean = step.mean.astype(dtype)
            step.std = step.std.astype(dtype)
        elif not isinstance(step, _DTYPE_TRANSPARENT_STEPS):
            raise UnsupportedLayerError(
                f"no {dtype.name} lowering for {type(step).__name__}; "
                "narrowed plans support the MLP step set (affine, "
                "activation, standardize, flatten, pooling, crop/pad)")


# ----------------------------------------------------------------------
# Fleet IR: one batched step list over K same-fingerprint members
# ----------------------------------------------------------------------

class FleetStep(PlanStep):
    """One plan step batched over a leading member axis of size K.

    Fleet steps see activations shaped ``(K, B, ...)`` — or the shared
    ``(B, F)`` input before the first member-specific step, which
    broadcasts through the batched kernels (``np.matmul`` and the
    elementwise ufuncs treat a missing leading axis as "same rows for
    every member").  Member ``k``'s slice of every buffer is computed
    with exactly the ops its own single-model plan would run, so
    stacked outputs are bitwise-equal to sequential ones.

    ``n_active`` is the training plan's member-compaction cursor:
    early-stopped members are swapped to the tail (:meth:`swap_members`)
    and every kernel runs on the ``[:n_active]`` row prefix, so a
    finished candidate stops contributing compute.  Inference plans
    keep it at ``k``.

    Stacked tensors are declared, not allocated, by the step:
    :meth:`param_sources` / :meth:`const_sources` name the per-member
    arrays as ``(holder, attr)`` pairs and the owning plan binds
    ``(K, *shape)`` views of its flat slab via :meth:`bind_params` /
    :meth:`bind_consts` — which is what makes a member hot-swap a
    single slab row copy.
    """

    __slots__ = ("k", "n_active", "pos")

    def __init__(self, k: int, training: bool):
        super().__init__(training)
        self.k = k
        self.n_active = k
        self.pos = -1            # flattened-layer index (set by emit)

    # -- slab sources -----------------------------------------------------
    def param_sources(self) -> tuple:
        """Trainable stacked tensors: a tuple of K-tuples of
        ``(holder, attr)`` pairs, in the member order the step was
        built with.  Read via ``getattr`` so hot-swap re-reads live
        arrays."""
        return ()

    def const_sources(self) -> tuple:
        """Frozen per-member constants (standardize stats, running
        stats at inference), same layout as :meth:`param_sources`."""
        return ()

    def bind_params(self, views) -> None:
        pass

    def bind_consts(self, views) -> None:
        pass

    def slab_updated(self) -> None:
        """Hook run after any slab row copy (derived constants such as
        the standardize reciprocal recompute here)."""

    # -- member management ------------------------------------------------
    def set_member(self, i: int, layer) -> None:
        """Rebind member ``i`` to a hot-swapped layer (inference)."""

    def swap_members(self, i: int, j: int) -> None:
        """Swap per-member *step-owned* state for rows ``i``/``j``
        (training compaction; slab rows are swapped by the plan)."""

    def snapshot_row(self, i: int):
        """Step-owned per-member state to capture alongside a best-epoch
        parameter snapshot (BatchNorm running stats); ``None`` when the
        step has none."""
        return None

    def restore_row(self, i: int, snap) -> None:
        """Restore a :meth:`snapshot_row` capture into row ``i``."""

    def sync_members(self) -> None:
        """Write step-owned per-member state back into the member
        layers (end of training)."""

    def eval_forward(self, x, n):
        """Evaluation-mode forward for training plans: dropout becomes
        identity, BatchNorm reads running stats; everything else is the
        training forward (which matches inference numerics)."""
        return self.forward(x, n)


class FleetAffineStep(FleetStep):
    """Fused batched ``z_k = act(x_k @ W_k.T + b_k)`` over K members.

    The weight view is ``(K, out, in)`` (each member's own C-contiguous
    ``Linear`` layout stacked); the forward multiplies by its
    ``(K, in, out)`` transpose view, which BLAS executes as K
    independent GEMMs — bitwise-identical to each member's
    ``np.dot(x, W.T)``.
    """

    __slots__ = ("layers", "w", "wt", "b", "act", "slope", "gw", "gb")

    def __init__(self, layers, act, training):
        super().__init__(len(layers), training)
        self.layers = list(layers)
        self.w = self.wt = self.b = None
        if act is None:
            self.act, self.slope = None, 0.0
        else:
            self.act, self.slope = act
        self.gw = self.gb = None

    def param_sources(self):
        srcs = [tuple((lay.weight, "data") for lay in self.layers)]
        if self.layers[0].bias is not None:
            srcs.append(tuple((lay.bias, "data") for lay in self.layers))
        return tuple(srcs)

    def bind_params(self, views):
        self.w = views[0]                  # (K, out, in) slab view
        self.wt = self.w.transpose(0, 2, 1)
        self.b = views[1][:, None, :] if len(views) > 1 else None

    def bind_grads(self, views):
        self.gw = views[0]
        self.gb = views[1] if len(views) > 1 else None

    def set_member(self, i, layer):
        self.layers[i] = layer

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        wt = self.wt if na == self.k else self.wt[:na]
        shape = (na, x.shape[-2], wt.shape[-1])
        z = s.get("z")
        if z is None or z.shape != shape:
            z = s["z"] = np.empty(shape, dtype=wt.dtype)
        np.matmul(x, wt, out=z)
        if self.b is not None:
            np.add(z, self.b[:na], out=z)
        if self.act is not None:
            _act_forward(self.act, self.slope, z, s)
        if self.training:
            s["x"] = x
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        na = g.shape[0]
        if self.act is not None:
            _act_backward(self.act, self.slope, g, s["z"], s)
        x = s["x"]
        # (na, out, B) @ (na|1, B, in): a shared 2-D x broadcasts.
        np.matmul(g.transpose(0, 2, 1), x, out=self.gw[:na])
        if self.gb is not None:
            np.add.reduce(g, axis=1, out=self.gb[:na])
        if not need_gx:
            return None
        gx = _buf(s, "gx", (na, g.shape[1], self.w.shape[2]))
        np.matmul(g, self.w[:na], out=gx)
        return gx


class FleetActStep(FleetStep):
    """Standalone activation over the stacked stream (shared kernel —
    fingerprint equality guarantees one kind/slope for all members)."""

    __slots__ = ("act", "slope")

    def __init__(self, k, act, training):
        super().__init__(k, training)
        self.act, self.slope = act

    def forward(self, x, n):
        s = self.scratch(n)
        z = s.get("z")
        if z is None or z.shape != x.shape or z.dtype != x.dtype:
            z = s["z"] = np.empty(x.shape, dtype=x.dtype)
        np.copyto(z, x)
        _act_forward(self.act, self.slope, z, s)
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        _act_backward(self.act, self.slope, g, s["z"], s)
        return g


class FleetDropoutStep(FleetStep):
    """Inverted dropout with a per-member ``(K, 1, 1)`` keep column.

    Each member's mask draws from its own layer RNG into its row slice
    (same stream consumption as the member's sequential
    :class:`DropoutStep`), so fixed-seed fleet training is bit-for-bit
    the sequential trajectory.  Deactivated members stop drawing —
    exactly like the sequential trainer they mirror stopped training.
    """

    __slots__ = ("layers", "keep")

    def __init__(self, layers):
        super().__init__(len(layers), True)
        self.layers = list(layers)
        self.keep = np.array([[[1.0 - lay.p]] for lay in layers])

    def set_member(self, i, layer):
        self.layers[i] = layer
        self.keep[i, 0, 0] = 1.0 - layer.p

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]
        self.keep[[i, j]] = self.keep[[j, i]]

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        if x.ndim == 2:
            x = np.broadcast_to(x, (na,) + x.shape)
        r = _buf(s, "r", x.shape)
        for i in range(na):
            self.layers[i].rng.random(out=r[i])
        keep = self.keep[:na]
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


class FleetBatchNormStep(FleetStep):
    """BatchNorm1d over the stacked stream.

    Training keeps the running statistics as step-owned ``(K, F)``
    stacks (updated with the exact sequential update, elementwise per
    member) and :meth:`sync_members` writes them back to the member
    layers; inference reads frozen running stats out of the plan slab.
    Reductions move from axis 0 to axis 1 — per-member summation order
    is unchanged, so member slices stay bitwise-sequential.
    """

    __slots__ = ("layers", "w", "b", "run_mu", "run_var", "gw", "gb",
                 "eps", "momentum")

    def __init__(self, layers, training):
        super().__init__(len(layers), training)
        self.layers = list(layers)
        self.eps = layers[0].eps
        self.momentum = layers[0].momentum
        self.w = self.b = None
        self.gw = self.gb = None
        if training:
            self.run_mu = np.stack([lay.running_mean for lay in layers])
            self.run_var = np.stack([lay.running_var for lay in layers])
        else:
            self.run_mu = self.run_var = None

    def param_sources(self):
        return (tuple((lay.weight, "data") for lay in self.layers),
                tuple((lay.bias, "data") for lay in self.layers))

    def const_sources(self):
        if self.training:
            return ()
        return (tuple((lay, "running_mean") for lay in self.layers),
                tuple((lay, "running_var") for lay in self.layers))

    def bind_params(self, views):
        self.w = views[0][:, None, :]
        self.b = views[1][:, None, :]

    def bind_consts(self, views):
        self.run_mu = views[0]
        self.run_var = views[1]

    def bind_grads(self, views):
        self.gw, self.gb = views

    def set_member(self, i, layer):
        self.layers[i] = layer

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]
        if self.training:
            self.run_mu[[i, j]] = self.run_mu[[j, i]]
            self.run_var[[i, j]] = self.run_var[[j, i]]

    def snapshot_row(self, i):
        if not self.training:
            return None
        return (self.run_mu[i].copy(), self.run_var[i].copy())

    def restore_row(self, i, snap):
        if snap is None:
            return
        self.run_mu[i] = snap[0]
        self.run_var[i] = snap[1]

    def sync_members(self):
        """Write the stacked running stats back into the member layers
        (rebinding, like the sequential step, so watching inference
        plans go stale)."""
        if not self.training:
            return
        for i, lay in enumerate(self.layers):
            lay.running_mean = self.run_mu[i].copy()
            lay.running_var = self.run_var[i].copy()

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        if x.ndim == 2:
            x = np.broadcast_to(x, (na,) + x.shape)
        if not self.training:
            mu = self.run_mu[:na, None, :]
            denom = np.sqrt(self.run_var[:na, None, :] + self.eps)
            return (x - mu) / denom * self.w[:na] + self.b[:na]
        inv_n = 1.0 / n
        mu = x.sum(axis=1, keepdims=True) * inv_n
        c = _buf(s, "c", x.shape)
        np.subtract(x, mu, out=c)
        sq = _buf(s, "sq", x.shape)
        np.multiply(c, c, out=sq)
        var = sq.sum(axis=1, keepdims=True) * inv_n
        m = self.momentum
        self.run_mu[:na] = ((1 - m) * self.run_mu[:na]
                            + m * mu[:, 0, :])
        self.run_var[:na] = ((1 - m) * self.run_var[:na]
                             + m * var[:, 0, :])
        std = np.sqrt(var + self.eps)
        norm = _buf(s, "norm", x.shape)
        np.divide(c, std, out=norm)
        z = _buf(s, "z", x.shape)
        np.multiply(norm, self.w[:na], out=z)
        np.add(z, self.b[:na], out=z)
        s["std"] = std
        s["inv_n"] = inv_n
        return z

    def eval_forward(self, x, n):
        na = self.n_active
        if x.ndim == 2:
            x = np.broadcast_to(x, (na,) + x.shape)
        mu = self.run_mu[:na, None, :]
        denom = np.sqrt(self.run_var[:na, None, :] + self.eps)
        return (x - mu) / denom * self.w[:na] + self.b[:na]

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        na = g.shape[0]
        c, sq, norm, std = s["c"], s["sq"], s["norm"], s["std"]
        inv_n = s["inv_n"]
        np.multiply(g, norm, out=sq)
        np.add.reduce(sq, axis=1, out=self.gw[:na])
        np.add.reduce(g, axis=1, out=self.gb[:na])
        dn = _buf(s, "dn", g.shape)
        np.multiply(g, self.w[:na], out=dn)
        np.multiply(dn, c, out=sq)
        np.negative(sq, out=sq)
        np.divide(sq, std * std, out=sq)
        dstd = sq.sum(axis=1, keepdims=True)
        dvar = dstd * 0.5 / std
        np.divide(dn, std, out=dn)
        gci = dvar * inv_n
        np.multiply(c, gci, out=sq)
        np.add(sq, sq, out=sq)
        np.add(dn, sq, out=dn)
        if not need_gx:
            return None
        dmu = dn.sum(axis=1, keepdims=True)
        np.negative(dmu, out=dmu)
        np.multiply(dmu, inv_n, out=dmu)
        gx = _buf(s, "gx", g.shape)
        np.add(dn, dmu, out=gx)
        return gx


class FleetLayerNormStep(FleetStep):
    """LayerNorm over the trailing axis, stacked weight/bias rows."""

    __slots__ = ("layers", "w", "b", "gw", "gb", "eps")

    def __init__(self, layers, training):
        super().__init__(len(layers), training)
        self.layers = list(layers)
        self.eps = layers[0].eps
        self.w = self.b = None
        self.gw = self.gb = None

    def param_sources(self):
        return (tuple((lay.weight, "data") for lay in self.layers),
                tuple((lay.bias, "data") for lay in self.layers))

    def bind_params(self, views):
        self.w = views[0][:, None, :]
        self.b = views[1][:, None, :]

    def bind_grads(self, views):
        self.gw, self.gb = views

    def set_member(self, i, layer):
        self.layers[i] = layer

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        if x.ndim == 2:
            x = np.broadcast_to(x, (na,) + x.shape)
        d = x.shape[-1]
        inv_d = 1.0 / d
        if not self.training:
            mu = x.sum(axis=-1, keepdims=True) * inv_d
            centered = x - mu
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
            return centered / np.sqrt(var + self.eps) * self.w[:na] \
                + self.b[:na]
        mu = x.sum(axis=-1, keepdims=True) * inv_d
        c = _buf(s, "c", x.shape)
        np.subtract(x, mu, out=c)
        sq = _buf(s, "sq", x.shape)
        np.multiply(c, c, out=sq)
        var = sq.sum(axis=-1, keepdims=True) * inv_d
        std = np.sqrt(var + self.eps)
        norm = _buf(s, "norm", x.shape)
        np.divide(c, std, out=norm)
        z = _buf(s, "z", x.shape)
        np.multiply(norm, self.w[:na], out=z)
        np.add(z, self.b[:na], out=z)
        s["std"] = std
        s["inv_d"] = inv_d
        return z

    def backward(self, g, n, need_gx):
        s = self._bufs[n]
        na = g.shape[0]
        c, sq, norm, std = s["c"], s["sq"], s["norm"], s["std"]
        inv_d = s["inv_d"]
        np.multiply(g, norm, out=sq)
        np.add.reduce(sq, axis=1, out=self.gw[:na])
        np.add.reduce(g, axis=1, out=self.gb[:na])
        dn = _buf(s, "dn", g.shape)
        np.multiply(g, self.w[:na], out=dn)
        np.multiply(dn, c, out=sq)
        np.negative(sq, out=sq)
        np.divide(sq, std * std, out=sq)
        dstd = sq.sum(axis=-1, keepdims=True)
        dvar = dstd * 0.5 / std
        np.divide(dn, std, out=dn)
        gci = dvar * inv_d
        np.multiply(c, gci, out=sq)
        np.add(sq, sq, out=sq)
        np.add(dn, sq, out=dn)
        if not need_gx:
            return None
        dmu = dn.sum(axis=-1, keepdims=True)
        np.negative(dmu, out=dmu)
        np.multiply(dmu, inv_d, out=dmu)
        gx = _buf(s, "gx", g.shape)
        np.add(dn, dmu, out=gx)
        return gx


class FleetStandardizeStep(FleetStep):
    """Frozen per-member ``(x - mean_k) * (1/std_k)`` input head.

    Usually the first step: a shared 2-D input broadcasts against the
    ``(K, 1, F)`` stat columns and comes out stacked.
    """

    __slots__ = ("layers", "mean", "std", "inv_std")

    def __init__(self, layers, training):
        super().__init__(len(layers), training)
        self.layers = list(layers)
        self.mean = self.std = self.inv_std = None

    def const_sources(self):
        return (tuple((lay, "mean") for lay in self.layers),
                tuple((lay, "std") for lay in self.layers))

    def bind_consts(self, views):
        self.mean = views[0][:, None, :]
        self.std = views[1][:, None, :]
        self.inv_std = np.empty_like(self.std)
        self.slab_updated()

    def slab_updated(self):
        np.divide(1.0, self.std, out=self.inv_std)

    def set_member(self, i, layer):
        self.layers[i] = layer

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        mean, inv = self.mean[:na], self.inv_std[:na]
        shape = (na, x.shape[-2], x.shape[-1])
        z = s.get("z")
        if z is None or z.shape != shape:
            z = s["z"] = np.empty(shape, dtype=inv.dtype)
        np.subtract(x, mean, out=z)
        np.multiply(z, inv, out=z)
        return z

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        np.multiply(g, self.inv_std[:g.shape[0]], out=g)
        return g


class FleetDestandardizeStep(FleetStep):
    """Frozen per-member ``x * std_k + mean_k`` output head."""

    __slots__ = ("layers", "mean", "std")

    def __init__(self, layers, training):
        super().__init__(len(layers), training)
        self.layers = list(layers)
        self.mean = self.std = None

    def const_sources(self):
        return (tuple((lay, "mean") for lay in self.layers),
                tuple((lay, "std") for lay in self.layers))

    def bind_consts(self, views):
        self.mean = views[0][:, None, :]
        self.std = views[1][:, None, :]

    def set_member(self, i, layer):
        self.layers[i] = layer

    def swap_members(self, i, j):
        self.layers[i], self.layers[j] = self.layers[j], self.layers[i]

    def forward(self, x, n):
        na = self.n_active
        s = self.scratch(n)
        shape = (na, x.shape[-2], x.shape[-1])
        z = s.get("z")
        if z is None or z.shape != shape:
            z = s["z"] = np.empty(shape, dtype=self.std.dtype)
        np.multiply(x, self.std[:na], out=z)
        np.add(z, self.mean[:na], out=z)
        return z

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        np.multiply(g, self.std[:g.shape[0]], out=g)
        return g


class FleetFlattenStep(FleetStep):
    """Member ``Flatten(start_dim=s)`` on a stacked stream reshapes
    from axis ``s + 1``; a still-shared (member-shaped) input keeps the
    member axis numbering."""

    __slots__ = ("start_dim", "member_ndim")

    def __init__(self, start_dim, member_ndim, k, training):
        super().__init__(k, training)
        self.start_dim = start_dim
        self.member_ndim = member_ndim

    def forward(self, x, n):
        if self.training:
            self.scratch(n)["shape"] = x.shape
        cut = self.start_dim + (1 if x.ndim > self.member_ndim else 0)
        return x.reshape(x.shape[:cut] + (-1,))

    def backward(self, g, n, need_gx):
        if not need_gx:
            return None
        return g.reshape(self._bufs[n]["shape"])


# -- fleet lowering registry + context ---------------------------------

_FLEET_LOWERINGS: dict = {}


def register_fleet_lowering(*layer_types):
    """Register ``lower(layers, ctx)`` for one or more layer types;
    ``layers`` is the K members' layer at the current position (MRO
    lookup, like :func:`register_lowering`)."""
    def deco(fn):
        for t in layer_types:
            _FLEET_LOWERINGS[t] = fn
        return fn
    return deco


def fleet_lowering_for(layer):
    for klass in type(layer).__mro__:
        fn = _FLEET_LOWERINGS.get(klass)
        if fn is not None:
            return fn
    return None


class FleetLoweringContext:
    """Lockstep lowering state over K structurally identical models."""

    __slots__ = ("training", "k", "steps", "summary", "n_fused",
                 "_members", "_pos")

    def __init__(self, members, training: bool):
        self.training = training
        self.k = len(members)
        self.steps: list = []
        self.summary: list = []
        self.n_fused = 0
        self._members = members
        self._pos = 0

    def layers(self) -> list:
        """The K member layers at the current position."""
        return [m[self._pos] for m in self._members]

    def peek(self):
        """Member 0's next layer (activation fusion probe; equal
        fingerprints guarantee every member has the same type there)."""
        nxt = self._pos + 1
        return self._members[0][nxt] if nxt < len(self._members[0]) \
            else None

    def fuse_next(self) -> None:
        self._pos += 1
        self.n_fused += 1

    def emit(self, step, note: str) -> None:
        step.pos = self._pos
        self.steps.append(step)
        self.summary.append(note)

    def note(self, note: str) -> None:
        self.summary.append(note)

    def unsupported(self, layer, why: str | None = None):
        mode = "training" if self.training else "inference"
        raise UnsupportedLayerError(
            why or f"no fleet {mode} lowering for {type(layer).__name__}")


def lower_fleet(models, training: bool):
    """Lower K same-fleet-fingerprint models into one batched step
    list.  Structurally mixed groups refuse with
    :class:`UnsupportedLayerError` (callers fall back to per-model
    plans), as do layers without a fleet lowering entry (conv/pool/
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
    struct_watch: list = []
    members = [_flatten_layers(m, struct_watch) for m in models]
    ctx = FleetLoweringContext(members, training)
    n_layers = len(members[0])
    while ctx._pos < n_layers:
        layers = ctx.layers()
        fn = fleet_lowering_for(layers[0])
        if fn is None:
            raise UnsupportedLayerError(
                f"no fleet lowering for {type(layers[0]).__name__}")
        fn(layers, ctx)
        ctx._pos += 1
    return ctx, struct_watch, n_layers


@register_fleet_lowering(L.Identity)
def _fleet_identity(layers, ctx):
    ctx.note("Identity: skipped")


@register_fleet_lowering(L.Dropout)
def _fleet_dropout(layers, ctx):
    if ctx.training and any(lay.p > 0.0 for lay in layers):
        ctx.emit(FleetDropoutStep(layers),
                 "Dropout xK: per-member keep column")
    else:
        ctx.note("Dropout: skipped")


@register_fleet_lowering(L.Linear)
def _fleet_linear(layers, ctx):
    nxt = ctx.peek()
    act = act_kind(nxt) if nxt is not None else None
    step = FleetAffineStep(layers, act, ctx.training)
    if act is not None:
        ctx.emit(step, f"Linear+{type(nxt).__name__} xK: fused batched "
                       f"affine")
        ctx.fuse_next()
    else:
        ctx.emit(step, "Linear xK: batched affine")


@register_fleet_lowering(L.ReLU, L.Tanh, L.Sigmoid, L.LeakyReLU)
def _fleet_activation(layers, ctx):
    ctx.emit(FleetActStep(ctx.k, act_kind(layers[0]), ctx.training),
             f"{type(layers[0]).__name__} xK: activation")


@register_fleet_lowering(L.BatchNorm1d)
def _fleet_batchnorm(layers, ctx):
    ctx.emit(FleetBatchNormStep(layers, ctx.training),
             "BatchNorm1d xK: batched stats"
             if ctx.training else "BatchNorm1d xK: running stats")


@register_fleet_lowering(L.LayerNorm)
def _fleet_layernorm(layers, ctx):
    ctx.emit(FleetLayerNormStep(layers, ctx.training),
             "LayerNorm xK: trailing-axis stats")


@register_fleet_lowering(L.Standardize)
def _fleet_standardize(layers, ctx):
    ctx.emit(FleetStandardizeStep(layers, ctx.training),
             "Standardize xK: stacked constants")


@register_fleet_lowering(L.Destandardize)
def _fleet_destandardize(layers, ctx):
    ctx.emit(FleetDestandardizeStep(layers, ctx.training),
             "Destandardize xK: stacked constants")


@register_fleet_lowering(L.Flatten)
def _fleet_flatten(layers, ctx):
    member_ndim = 2        # fleet zoo is the MLP family: (B, F) members
    ctx.emit(FleetFlattenStep(layers[0].start_dim, member_ndim, ctx.k,
                              ctx.training),
             "Flatten xK: reshape")


# -- the stacked inference plan ----------------------------------------

class FleetPlan:
    """Stacked inference over K same-fingerprint models.

    One flat ``(K, n_slab)`` weight slab (float64 by default; pass
    ``dtype=np.float32`` for a narrowed slab that halves the memory
    traffic of the bandwidth-bound K-row GEMMs) holds every member's
    parameters *and* frozen constants; steps hold ``(K, *shape)`` views
    into it, so hot-swapping member ``k`` is one row-slice copy
    (:meth:`replace_member`) and the next stacked forward reads the new
    weights — no rebuild, no other member disturbed.

    ``__call__`` accepts a shared ``(B, F)`` input (broadcast to every
    member) or a stacked ``(K, B, F)`` batch and returns ``(K, B,
    *out)`` stacked outputs; row ``k`` is bitwise-equal to member
    ``k``'s own compiled forward.
    """

    __slots__ = ("k", "dtype", "fingerprint", "summary", "n_layers",
                 "n_fused", "slab", "n_slab", "_steps", "_segs", "_watch",
                 "_keys")

    def __init__(self, models, dtype=np.float64):
        models = list(models)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"fleet plans support float64/float32, not {self.dtype}")
        ctx, _struct, n_layers = lower_fleet(models, training=False)
        self.k = ctx.k
        self.fingerprint = fleet_fingerprint(models[0], extra=("infer",))
        self.summary = tuple(ctx.summary)
        self.n_layers = n_layers
        self.n_fused = ctx.n_fused
        self._steps = ctx.steps
        self._keys: set = set()
        self._build_slab()

    # -- slab construction ------------------------------------------------
    def _seg_sources(self, step, kind):
        return step.param_sources() if kind == "p" else \
            step.const_sources()

    def _build_slab(self):
        segs = []
        offset = 0
        for step in self._steps:
            for kind in ("p", "c"):
                for si, src in enumerate(self._seg_sources(step, kind)):
                    arr0 = getattr(*src[0])
                    if arr0.dtype != np.float64:
                        raise UnsupportedLayerError(
                            "fleet plans require float64 member tensors")
                    segs.append((step, kind, si, offset,
                                 offset + arr0.size, arr0.shape))
                    offset += arr0.size
        self._segs = segs
        self.n_slab = offset
        # The slab carries the plan dtype: member tensors stay float64
        # at the source, and a narrowed plan casts exactly once per
        # member — on the row copy in :meth:`refresh_member` (which is
        # also the hot-swap path, so swapped-in weights cast on swap).
        self.slab = np.empty((self.k, offset), dtype=self.dtype)
        self._watch = [None] * self.k
        for k in range(self.k):
            self._copy_member(k)
        # Derived constants (the standardize reciprocal) are computed
        # from the bound views, so ``slab_updated`` runs only after
        # every step has its views.
        for step in self._steps:
            pviews, cviews = [], []
            for (s2, kind, si, lo, hi, shape) in segs:
                if s2 is step:
                    view = self.slab[:, lo:hi].reshape((self.k,) + shape)
                    (pviews if kind == "p" else cviews).append(view)
            if pviews:
                step.bind_params(pviews)
            if cviews:
                step.bind_consts(cviews)
        for step in self._steps:
            step.slab_updated()

    # -- member staleness / hot-swap --------------------------------------
    def refresh_member(self, k: int) -> None:
        """Re-copy member ``k``'s live arrays into slab row ``k`` and
        re-arm its staleness watch."""
        self._copy_member(k)
        for step in self._steps:
            step.slab_updated()

    def _copy_member(self, k: int) -> None:
        watch = []
        for (step, kind, si, lo, hi, shape) in self._segs:
            holder, attr = self._seg_sources(step, kind)[si][k]
            arr = getattr(holder, attr)
            if arr.shape != shape:
                raise UnsupportedLayerError(
                    f"member {k} tensor {attr} changed shape "
                    f"{shape} -> {arr.shape}")
            self.slab[k, lo:hi] = arr.reshape(-1)
            watch.append((holder, attr, arr))
        self._watch[k] = watch

    def member_stale(self, k: int) -> bool:
        """Member ``k``'s slab row no longer matches its live arrays
        (parameter rebind — e.g. ``load_state_dict``)."""
        return bool(self.stale_members((k,)))

    def stale_members(self, rows=None) -> list:
        """The members among ``rows`` (default: all) that are stale —
        one flat sweep, cheap enough to run before every wave."""
        watch = self._watch
        stale = []
        for k in (range(self.k) if rows is None else rows):
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
            if step.pos >= 0:
                step.set_member(k, layers[step.pos])
        self.refresh_member(k)

    def member_digest(self, k: int) -> str:
        """BLAKE2b digest of member ``k``'s slab row (memo identity)."""
        return hashlib.blake2b(self.slab[k].tobytes(),
                               digest_size=16).hexdigest()

    # -- execution ---------------------------------------------------------
    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        n = x.shape[-2] if x.ndim >= 2 else len(x)
        if n not in self._keys:
            if len(self._keys) > 16:
                for step in self._steps:
                    step.clear()
                self._keys.clear()
            self._keys.add(n)
        h = x
        for step in self._steps:
            h = step.forward(h, n)
        return h

    def member_outputs(self, outputs, k: int) -> np.ndarray:
        return outputs[k]

    def __repr__(self):
        return (f"FleetPlan(k={self.k}, steps={len(self._steps)}, "
                f"fingerprint={self.fingerprint[:8]})")
