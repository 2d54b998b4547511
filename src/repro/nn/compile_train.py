"""Compiled training fast path: fused forward/backward plans + fused optimizer.

PR 1 compiled *inference*; this module compiles *training*, the
remaining hot path: every ``Trainer._epoch`` minibatch on the graph
path allocates dozens of autodiff ``Tensor`` intermediates, and
``Adam.step`` loops over parameters in Python.  Since the online
serving layer retrains in-process (``serving.retrain.RetrainWorker``)
and the BO hyperparameter search trains every candidate, epoch time
bounds both drift-recovery latency and search throughput.

:func:`compile_training` lowers a model **once** through the shared
plan IR (:mod:`repro.nn.plan`) — the same per-layer registry the
inference compiler uses, in training mode — and emits a
:class:`CompiledTrainingPlan`; :func:`compile_fleet_training` lowers K
same-fingerprint models into one :class:`FleetTrainingPlan`.  Training
is one family over a member axis: both plans run the same minibatch
loop, loss and optimizers over ``(rows, n_flat)`` gradient rows — one
row for a single model, the ``n_active`` leading slab rows of a fleet.

* **fused forward** — affine/conv/recurrent steps over raw ndarrays
  into preallocated per-batch-size scratch, stashing only the
  activations the backward pass needs (zero ``Tensor`` wrappers);
* **hand-derived backward** — per-step adjoints that replay the exact
  op sequence of the autodiff graph (same formulas, same association
  where it matters) and write parameter gradients straight into
  per-parameter views of one flat, preallocated gradient buffer;
* **loss** — one compiled loss reduces per row, so a fleet member's
  value and seed gradient are bitwise its sequential twin's;
* **fused optimizer** — :class:`FusedAdam` / :class:`FusedSGD` run the
  moment updates vectorized over the gradient/moment rows (decoupled
  weight decay, in-place parameter updates) instead of a Python loop
  of temporaries per parameter.  A single model's step reads its
  hyperparameters from the graph optimizer (LR schedulers keep
  working); a fleet's are per-member ``(K, 1)`` columns.  Both expose
  ``state_dict()`` / ``load_state_dict()`` over the moment buffers,
  and plans carry a structural fingerprint — together these let
  moments survive a same-structure recompile (warm restarts across
  ``load_state_dict``, hot-swap retrains, repeated ``fit()`` calls);
* **in-place global-norm clipping** — ``clip_gradients`` accumulates
  per-parameter ``np.vdot`` per row and rescales that row in place.

Supported layer set is the deployed-surrogate zoo: ``Linear``,
ReLU/Tanh/Sigmoid/LeakyReLU, ``Dropout`` (train-mode masks drawn from
the layer RNG stream, so compiled and graph training consume identical
draws), ``BatchNorm1d`` (train mode, running stats), ``Conv1d``/
``Conv2d`` (im2col + GEMM with the ``col2im`` adjoint), ``GRU``
(full-window BPTT; final-state and sequence outputs),
``MaxPool2d``, ``CropPad2d``, ``Standardize``/``Destandardize``,
``Flatten``, ``Identity``, and ``Sequential`` nesting — every Table IV
surrogate family trains on the fast path.  Anything else (custom
modules, custom losses/optimizers, non-float64 data) raises
:class:`UnsupportedLayerError` and callers fall back to the graph path
— :class:`~repro.nn.Trainer` does this automatically.

Numerical contract: with float64 data and fixed seeds the compiled
path reproduces the graph path's losses, gradients and parameter
trajectories to within a few ULP (element-wise ops are mirrored
exactly; the only divergence source is BLAS accumulation order inside
the weight-gradient GEMMs).  ``tests/test_nn_compile_train.py`` and
``tests/test_nn_plan.py`` pin gradient parity at <= 1e-10 and
identical early-stopping behavior.
"""

from __future__ import annotations

import functools

import numpy as np

from . import layers as L
from .compile import CompiledPlan
from .loss import huber_loss, l1_loss, mape_loss, mse_loss
from .optim import SGD, Adam
from .plan import (PlanStep, UnsupportedLayerError, _StackedEntry,
                   _bind_slabs, _buf, _fill_slab_row, _source_segments,
                   fleet_fingerprint, loss_token, lower_fleet, lower_model,
                   structural_fingerprint)

__all__ = ["compile_training", "CompiledTrainingPlan", "FusedAdam",
           "FusedSGD", "compile_fleet_training", "FleetTrainingPlan",
           "fleet_training_fingerprint", "UnsupportedLayerError"]


# ----------------------------------------------------------------------
# Loss lowering
# ----------------------------------------------------------------------

class _CompiledLoss(PlanStep):
    """Per-row loss values + seed gradient, mirroring the graph op
    sequence.

    ``pred`` holds ``rows`` members' predictions: ``(B, *out)`` for one
    model, ``(rows, B, *out)`` for a fleet, whose ``target`` is one
    shared batch or one per member.  Every op is elementwise or a
    per-row sum with the sequential association, so row ``r`` is
    bitwise what its member's own plan computes.
    """

    __slots__ = ("kind", "delta", "eps")

    def __init__(self, kind, delta=1.0, eps=1e-8):
        super().__init__(True)
        self.kind = kind
        self.delta = delta
        self.eps = eps

    def run(self, pred, target, n, rows):
        if target.shape != pred.shape and (
                target.shape != pred.shape[1:] or pred.shape[0] != rows):
            raise ValueError(f"loss shape mismatch: {pred.shape} vs "
                             f"{target.shape}")
        s = self.scratch(n)
        d = _buf(s, "d", pred.shape)
        np.subtract(pred, target, out=d)
        inv = 1.0 / (d.size // rows)
        g = _buf(s, "g", pred.shape)
        t = _buf(s, "t", pred.shape)
        kind = self.kind
        if kind == "mse":
            np.multiply(d, d, out=t)
            # Graph: two (1/N)*diff accumulations — exact doubling.
            np.multiply(d, inv, out=g)
            np.add(g, g, out=g)
        elif kind == "l1":
            np.abs(d, out=t)
            np.sign(d, out=g)
            np.multiply(g, inv, out=g)
        elif kind == "mape":
            denom = np.maximum(np.abs(target), self.eps)
            np.abs(d, out=t)
            np.divide(t, denom, out=t)
            np.sign(d, out=g)
            np.multiply(g, inv, out=g)
            np.divide(g, denom, out=g)
        else:
            # huber: a = |d|; quad = clip(a, 0, delta); lin = a - quad;
            # loss = (quad*quad*0.5 + lin*delta).mean()
            delta = self.delta
            a = np.abs(d)
            quad = np.clip(a, 0.0, delta)
            lin = a - quad
            np.add(quad * quad * 0.5, lin * delta, out=t)
            gq = quad * (inv * 0.5)
            gq += gq
            gq -= inv * delta
            mask = (a >= 0.0) & (a <= delta)
            ga = inv * delta + gq * mask
            np.sign(d, out=g)
            np.multiply(g, ga, out=g)
        return t.reshape(rows, -1).sum(axis=1) * inv, g


def _resolve_loss(loss_fn) -> _CompiledLoss:
    base, kwargs = loss_fn, {}
    if isinstance(loss_fn, functools.partial):
        if loss_fn.args:
            raise UnsupportedLayerError(
                "compiled training supports keyword-only loss partials")
        base, kwargs = loss_fn.func, dict(loss_fn.keywords or {})
    if base is mse_loss and not kwargs:
        return _CompiledLoss("mse")
    if base is l1_loss and not kwargs:
        return _CompiledLoss("l1")
    if base is huber_loss and set(kwargs) <= {"delta"}:
        return _CompiledLoss("huber", delta=kwargs.get("delta", 1.0))
    if base is mape_loss and set(kwargs) <= {"eps"}:
        return _CompiledLoss("mape", eps=kwargs.get("eps", 1e-8))
    name = getattr(base, "__name__", repr(base))
    raise UnsupportedLayerError(f"no compiled training lowering for loss "
                                f"{name!r}")


# ----------------------------------------------------------------------
# Fused optimizers over (rows, n_flat) gradient and moment buffers
# ----------------------------------------------------------------------

def _head(value, na):
    """A per-member ``(K, 1)`` hyperparameter column cut to the active
    rows; a scalar as is."""
    return value[:na] if isinstance(value, np.ndarray) else value


class _FusedOptimizer:
    """Row binding shared by :class:`FusedAdam` and :class:`FusedSGD`.

    The optimizer's buffers are shaped like the plan's gradient buffer
    (``(n_flat,)`` for one model, ``(K, n_flat)`` for a fleet) and are
    stepped as ``(rows, n_flat)`` views cut to the plan's ``n_active``
    rows.  The tail walks ``plan.param_rows()`` segments: one per live
    parameter array of a single model (updated in place, so its
    inference plans keep watching the same arrays), one whole slab for
    a fleet.  ``src`` supplies the hyperparameters on every step.
    """

    __slots__ = ("plan", "src", "_na", "_views", "_segs")
    #: Buffer attributes stepped as rows; the first is the segment
    #: scratch, the ones in :attr:`_state` are swapped by compaction.
    _rows_of = ()
    _state = ()

    def __init__(self, plan, src):
        self.plan = plan
        self.src = src
        self._na = None

    def _bind_rows(self) -> int:
        """The plan's active row count, (re)cutting the row views when
        it changed (fleet compaction)."""
        na = self.plan.n_active
        if na != self._na:
            n = self.plan.n_flat

            def rows(buf):
                return None if buf is None else buf.reshape(-1, n)[:na]

            views = (rows(self.plan.grads),) + tuple(
                rows(getattr(self, name)) for name in self._rows_of)
            G, scratch = views[0], views[1]
            self._segs = [(P[:na], scratch[:, lo:hi], G[:, lo:hi])
                          for P, lo, hi in self.plan.param_rows()]
            self._views, self._na = views, na
        return na

    def swap_rows(self, i: int, j: int) -> None:
        """Swap rows ``i`` / ``j`` of the per-member state and
        hyperparameter columns (fleet compaction)."""
        bufs = [getattr(self, name) for name in self._state]
        for buf in bufs + [self.src.lr, self.src.weight_decay]:
            if isinstance(buf, np.ndarray):
                buf[[i, j]] = buf[[j, i]]


class FusedAdam(_FusedOptimizer):
    """Vectorized Adam/AdamW step over a plan's gradient rows.

    Reads hyperparameters (``lr``, betas, ``eps``, ``weight_decay``)
    from ``src`` on every step — the source
    :class:`~repro.nn.optim.Adam` of one model, so LR schedulers
    mutating ``optimizer.lr`` keep working, or a fleet's holder of
    per-member ``(K, 1)`` columns.  The step count ``t`` is shared by a
    fleet's rows — valid because member deactivation is monotonic, so
    an active member at step ``t`` has taken exactly ``t`` steps.
    ``state_dict`` / ``load_state_dict`` move the moments between
    same-layout plans (equal structural fingerprints), which is how
    warm restarts survive a recompile.
    """

    __slots__ = ("m", "v", "_u", "_s", "t")
    _rows_of = ("_u", "m", "v", "_s")
    _state = ("m", "v")

    def __init__(self, plan, src):
        super().__init__(plan, src)
        self.m = np.zeros_like(plan.grads)
        self.v = np.zeros_like(plan.grads)
        self._u = np.empty_like(plan.grads)
        self._s = np.empty_like(plan.grads)
        # A graph Adam's step count; a fleet's holder starts at zero.
        self.t = int(getattr(src, "_t", 0))

    def state_dict(self) -> dict:
        """Moment state, copy-safe for carrying across recompiles."""
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def load_state_dict(self, state: dict) -> None:
        m = np.asarray(state["m"], dtype=np.float64)
        v = np.asarray(state["v"], dtype=np.float64)
        if m.shape != self.m.shape or v.shape != self.v.shape:
            raise ValueError(
                f"moment shape mismatch: got {m.shape}/{v.shape}, plan "
                f"has {self.m.shape} flat parameters")
        self.m[...] = m
        self.v[...] = v
        self.t = int(state["t"])

    def step(self) -> None:
        src = self.src
        na = self._bind_rows()
        lr, wd = _head(src.lr, na), _head(src.weight_decay, na)
        b1, b2, eps = src.beta1, src.beta2, src.eps
        self.t += 1
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        G, U, M, V, S = self._views
        M *= b1
        np.multiply(G, 1.0 - b1, out=U)
        M += U
        V *= b2
        # A diverged candidate's gradients square past the float64
        # range; the inf second moment then drives that parameter's
        # update to m / sqrt(inf) = 0 instead of raising, which is how
        # a search loop survives the candidate.  Expected, not a bug.
        with np.errstate(over="ignore"):
            np.multiply(G, G, out=S)
        S *= 1.0 - b2
        V += S
        np.divide(M, bias1, out=U)
        np.divide(V, bias2, out=S)
        np.sqrt(S, out=S)
        S += eps
        U /= S
        # Per-segment tail: decoupled decay + in-place update.  The
        # gradient segment doubles as scratch (it is rewritten by the
        # next backward pass anyway).  Without decay the lr scale runs
        # once over the rows instead of per segment.
        if isinstance(wd, np.ndarray) or wd:
            for pseg, useg, gseg in self._segs:
                np.multiply(pseg, wd, out=gseg)
                useg += gseg
                np.multiply(useg, lr, out=gseg)
                np.subtract(pseg, gseg, out=pseg)
        else:
            U *= lr
            for pseg, useg, _gseg in self._segs:
                np.subtract(pseg, useg, out=pseg)


class FusedSGD(_FusedOptimizer):
    """Vectorized SGD (momentum, L2 decay) over a plan's gradient rows;
    hyperparameters are read from ``src`` like :class:`FusedAdam`'s."""

    __slots__ = ("vel", "_s")
    _rows_of = ("_s", "vel")
    _state = ("vel",)

    def __init__(self, plan, src):
        super().__init__(plan, src)
        self.vel = np.zeros_like(plan.grads) if src.momentum else None
        self._s = np.empty_like(plan.grads)

    def state_dict(self) -> dict:
        return {"vel": None if self.vel is None else self.vel.copy()}

    def load_state_dict(self, state: dict) -> None:
        vel = state.get("vel")
        if vel is None:
            return                       # momentum-less: nothing to carry
        if self.vel is None:
            raise ValueError("velocity state given but momentum is 0")
        vel = np.asarray(vel, dtype=np.float64)
        if vel.shape != self.vel.shape:
            raise ValueError(f"velocity shape mismatch: {vel.shape} vs "
                             f"{self.vel.shape}")
        self.vel[...] = vel

    def step(self) -> None:
        src = self.src
        na = self._bind_rows()
        lr, wd = _head(src.lr, na), _head(src.weight_decay, na)
        mom = src.momentum
        G, S, V = self._views
        if isinstance(wd, np.ndarray) or wd:
            for pseg, sseg, gseg in self._segs:
                np.multiply(pseg, wd, out=sseg)
                gseg += sseg
        if mom:
            V *= mom
            V += G
            upd = V
        else:
            upd = G
        np.multiply(upd, lr, out=S)
        for pseg, sseg, _gseg in self._segs:
            np.subtract(pseg, sseg, out=pseg)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

class _TrainingPlan:
    """What both training plans share: one minibatch loop, one
    ``need_gx`` rule and one per-row gradient clip.

    A subclass binds its tensors — a single model's live arrays, or
    slab rows — and supplies ``_enter(x) -> (stream, n)``, ``grads``
    (``n_flat`` columns per row), ``offsets`` (each parameter's
    ``[lo, hi)`` columns) and ``n_active`` (its rows).
    """

    __slots__ = ("_steps", "_loss", "_need_gx", "summary", "n_layers",
                 "n_fused", "fingerprint", "n_flat", "grads", "offsets")

    def __init__(self, steps, loss_plan, summary, n_layers, n_fused,
                 fingerprint):
        self._steps = tuple(steps)
        self._loss = loss_plan
        self.summary = tuple(summary)
        self.n_layers = n_layers
        self.n_fused = n_fused
        #: Structural digest of the lowered (model, loss) pair.  Equal
        #: fingerprints => identical flat-buffer layout, so fused
        #: optimizer moments may be carried across a recompile.
        self.fingerprint = fingerprint
        # A step only needs an input gradient if some *earlier* step
        # holds parameters — skips the input-gradient GEMM of the first
        # parameterized step and the backward sweeps of leading
        # Standardize/Flatten steps (those gradients were discarded
        # anyway).
        need, seen = [], False
        for step in self._steps:
            need.append(seen)
            seen = seen or bool(step.param_sources())
        if not seen:
            raise UnsupportedLayerError("model has no trainable parameters")
        self._need_gx = tuple(need)

    def train_batch(self, x, y):
        """One fused forward/backward minibatch for every active row —
        forward with train-mode semantics, loss, backward — leaving the
        parameter gradients in :attr:`grads`; returns the per-row
        losses."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.dtype != np.float64 or y.dtype != np.float64:
            raise TypeError("compiled training requires float64 arrays")
        h, n = self._enter(x)
        for step in self._steps:
            h = step.forward(h, n)
        losses, g = self._loss.run(h, y, n, self.n_active)
        steps = self._steps
        need_gx = self._need_gx
        for i in range(len(steps) - 1, -1, -1):
            g = steps[i].backward(g, n, need_gx[i])
            if g is None:
                break
        return losses

    def clip_gradients(self, max_norm: float) -> np.ndarray:
        """Per-row global-norm clip, in place on the gradient rows
        (per-parameter ``np.vdot`` association); returns the
        ``(n_active,)`` pre-clip norms."""
        rows = self.grads.reshape(-1, self.n_flat)
        norms = np.empty(self.n_active)
        for r in range(self.n_active):
            grad = rows[r]
            total = 0.0
            for lo, hi in self.offsets:
                seg = grad[lo:hi]
                total += float(np.vdot(seg, seg))
            norms[r] = norm = float(np.sqrt(total))
            if norm > max_norm:
                grad *= max_norm / (norm + 1e-12)
        return norms


class CompiledTrainingPlan(_TrainingPlan):
    """A fused forward/backward training closure over raw ndarrays.

    One model, one row: ``train_batch(x, y)`` returns the scalar loss
    and leaves parameter gradients in per-parameter views of the flat
    :attr:`grads` buffer.  The parameters stay the model's live arrays
    (its inference plans and the graph fallback read them).  Pair with
    :meth:`bind_optimizer` for the fused update and
    :meth:`clip_gradients` for global-norm clipping.
    """

    __slots__ = ("params", "grad_views", "_watch", "_struct_watch",
                 "_keys")
    n_active = 1

    def __init__(self, steps, loss_plan, watch, struct_watch, summary,
                 n_layers, n_fused, fingerprint):
        super().__init__(steps, loss_plan, summary, n_layers, n_fused,
                         fingerprint)
        self.params = tuple(p for step in self._steps
                            for p in step.grad_params)
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.offsets = tuple(zip(bounds[:-1], bounds[1:]))
        self.n_flat = bounds[-1]
        self.grads = np.zeros(self.n_flat)
        self.grad_views = tuple(
            self.grads[lo:hi].reshape(p.data.shape)
            for p, (lo, hi) in zip(self.params, self.offsets))
        self._watch = tuple(watch)
        self._struct_watch = tuple(struct_watch)
        self._keys: set = set()
        # Late-bind gradient views into the steps (built before the
        # flat buffer exists).
        views = iter(self.grad_views)
        for step in self._steps:
            if step.grad_params:
                step.bind_grads(tuple(next(views) for _ in step.grad_params))

    #: Same watch as an inference plan, same rule: parameter-array
    #: rebinding and ``Sequential`` mutation trip it, the fused
    #: optimizer's in-place updates do not.
    stale = CompiledPlan.stale

    def param_rows(self) -> list:
        """``(rows, size)`` parameter arrays with their gradient columns:
        each live array as one row."""
        return [(p.data.reshape(1, -1), lo, hi)
                for p, (lo, hi) in zip(self.params, self.offsets)]

    def bind_optimizer(self, opt):
        """Build the fused optimizer mirroring ``opt``'s hyperparameters.

        Raises :class:`UnsupportedLayerError` for optimizers without a
        fused lowering (custom subclasses, pre-stepped moment state, or
        a parameter set that differs from the plan's).
        """
        plan_ids = {id(p) for p in self.params}
        opt_ids = {id(p) for p in opt.params}
        if plan_ids != opt_ids:
            raise UnsupportedLayerError(
                "optimizer parameter set differs from the compiled plan's")
        if type(opt) is Adam:
            if any(m.any() for m in opt._m):
                raise UnsupportedLayerError(
                    "Adam has pre-stepped moment state; compiled training "
                    "requires a fresh optimizer")
            return FusedAdam(self, opt)
        if type(opt) is SGD:
            if opt.momentum and any(v.any() for v in opt._velocity):
                raise UnsupportedLayerError(
                    "SGD has pre-stepped velocity state; compiled training "
                    "requires a fresh optimizer")
            return FusedSGD(self, opt)
        raise UnsupportedLayerError(
            f"no fused lowering for optimizer {type(opt).__name__}")

    def _enter(self, x) -> tuple:
        n = x.shape[0]
        if n not in self._keys:
            if len(self._keys) > 16:
                for step in self._steps:
                    step.clear()
                self._loss.clear()
                self._keys.clear()
            self._keys.add(n)
        return x, n

    def train_batch(self, x, y) -> float:
        """One fused forward/backward minibatch; returns the loss."""
        return float(super().train_batch(x, y)[0])

    def __repr__(self):
        return (f"CompiledTrainingPlan(layers={self.n_layers}, "
                f"steps={len(self._steps)}, fused={self.n_fused}, "
                f"params={len(self.params)})")


def training_fingerprint(model: L.Module, loss_fn=mse_loss) -> str:
    """Structural fingerprint of a (model, loss) training plan — what
    :attr:`CompiledTrainingPlan.fingerprint` will be if compiled.  Cheap
    (no array math), so callers key caches/latches on it without
    lowering first."""
    return structural_fingerprint(model,
                                  extra=("train", loss_token(loss_fn)))


def compile_training(model: L.Module, loss_fn=mse_loss) -> CompiledTrainingPlan:
    """Compile ``model`` + ``loss_fn`` into a fused training plan.

    Raises :class:`UnsupportedLayerError` for layers, losses or
    optimizers without a training lowering — callers fall back to the
    autodiff graph path (``Trainer`` does so automatically).
    """
    loss_plan = _resolve_loss(loss_fn)
    ctx, struct_watch, n_layers = lower_model(model, training=True)
    return CompiledTrainingPlan(ctx.steps, loss_plan, ctx.watch,
                                struct_watch, ctx.summary, n_layers,
                                ctx.n_fused,
                                training_fingerprint(model, loss_fn))


# ----------------------------------------------------------------------
# Fleet training: K same-fingerprint candidates in lockstep
# ----------------------------------------------------------------------

class FleetTrainingPlan(_TrainingPlan):
    """Fused forward/backward over K stacked same-fingerprint models.

    ``train_batch(x, y)`` advances every *active* member one minibatch
    — one batched forward, per-member losses, one batched backward —
    leaving gradients in the ``(K, n_flat)`` :attr:`grads` slab rows.
    Early-stopped members are compacted out via :meth:`deactivate`
    (their slab rows swap to the tail and every kernel shrinks to the
    active prefix), so finished candidates stop contributing compute.
    Member ``k``'s loss/gradient/parameter trajectory is bitwise the
    one its own sequential :class:`CompiledTrainingPlan` would produce.
    """

    __slots__ = ("k", "n_active", "pslab", "cslab", "_psegs", "_csegs",
                 "_entry", "row_of", "member_at", "_opt")

    def __init__(self, models, loss_fn=mse_loss):
        loss_plan = _resolve_loss(loss_fn)
        ctx, _struct, n_layers = lower_fleet(models, training=True)
        super().__init__(ctx.steps, loss_plan, ctx.summary, n_layers,
                         ctx.n_fused,
                         fleet_training_fingerprint(models[0], loss_fn))
        self.k = ctx.k
        self.n_active = ctx.k
        self._entry = _StackedEntry(self._steps)
        self.row_of = list(range(self.k))
        self.member_at = list(range(self.k))
        self._opt = None
        # Parameters get a slab of their own: the fused optimizers step
        # whole ``pslab[:n_active]`` / ``grads[:n_active]`` blocks.
        self._psegs, self.n_flat = _source_segments(self._steps, "param")
        self._csegs, n_const = _source_segments(self._steps, "const")
        self.offsets = tuple((lo, hi) for _s, _si, lo, hi, _sh in self._psegs)
        self.pslab = np.empty((self.k, self.n_flat))
        self.cslab = np.empty((self.k, max(n_const, 1)))
        self.grads = np.zeros((self.k, self.n_flat))
        for row in range(self.k):
            _fill_slab_row(self.pslab, row, self._psegs, "param")
            _fill_slab_row(self.cslab, row, self._csegs, "const")
        _bind_slabs(self._steps, self._psegs, self.pslab,
                    self._csegs, self.cslab, grads=self.grads)

    def param_rows(self) -> list:
        """``(rows, size)`` parameter arrays with their gradient columns:
        the whole parameter slab."""
        return [(self.pslab, 0, self.n_flat)]

    # -- optimizer / member management ------------------------------------
    def bind_optimizer(self, opt) -> None:
        """Register the fused optimizer stepping this plan's rows so
        member compaction swaps its per-member rows alongside the slab
        rows."""
        self._opt = opt

    def deactivate(self, member: int) -> None:
        """Retire ``member`` (early stop): swap its slab/optimizer rows
        to the tail and shrink every kernel's active prefix."""
        row = self.row_of[member]
        last = self.n_active - 1
        if row > last:
            raise ValueError(f"member {member} is already inactive")
        if row != last:
            other = self.member_at[last]
            for slab in (self.pslab, self.grads, self.cslab):
                slab[[row, last]] = slab[[last, row]]
            for step in self._steps:
                step.swap_members(row, last)
            if self._opt is not None:
                self._opt.swap_rows(row, last)
            self.row_of[member], self.row_of[other] = last, row
            self.member_at[row], self.member_at[last] = other, member
        self.n_active -= 1
        for step in self._steps:
            step.n_active = self.n_active
        self._entry.seen.clear()     # stacked inputs are n_active rows now

    def snapshot_member(self, member: int) -> dict:
        """Best-epoch capture of one member: parameter row + step-owned
        state (BatchNorm running stats) — the fleet analogue of the
        sequential trainer's ``state_dict`` snapshot."""
        row = self.row_of[member]
        return {"params": self.pslab[row].copy(),
                "steps": [step.snapshot_row(row) for step in self._steps]}

    def restore_member(self, member: int, snap: dict) -> None:
        row = self.row_of[member]
        self.pslab[row] = snap["params"]
        for step, s in zip(self._steps, snap["steps"]):
            step.restore_row(row, s)

    def sync_members(self) -> None:
        """Copy slab rows back into the member models' live parameter
        arrays (and running stats) — call once after training."""
        for (step, si, lo, hi, shape) in self._psegs:
            srcs = step.param_sources()[si]   # row order after swaps
            for row in range(self.k):
                holder, attr = srcs[row]
                getattr(holder, attr)[...] = \
                    self.pslab[row, lo:hi].reshape(shape)
        for step in self._steps:
            step.sync_members()

    # -- execution ---------------------------------------------------------
    def _enter(self, x) -> tuple:
        """``(stream, n)``: ``x`` behind a leading member axis (extent 1
        when one batch is shared by every member) and its batch size."""
        try:
            n, shared = self._entry.seen[x.shape]
        except KeyError:
            n, shared = self._entry.admit(x.shape, self.n_active,
                                          self._steps + (self._loss,))
        return (x[None] if shared else x), n

    def eval_forward(self, x) -> np.ndarray:
        """Stacked evaluation-mode forward (dropout off, BatchNorm on
        running stats) — row ``r`` is bitwise member ``member_at[r]``'s
        compiled inference forward."""
        x = np.asarray(x)
        if x.dtype != np.float64:
            x = x.astype(np.float64)
        h, n = self._enter(x)
        for step in self._steps:
            h = step.eval_forward(h, n)
        return h

    def __repr__(self):
        return (f"FleetTrainingPlan(k={self.k}, "
                f"active={self.n_active}, steps={len(self._steps)}, "
                f"n_flat={self.n_flat})")


def fleet_training_fingerprint(model: L.Module, loss_fn=mse_loss) -> str:
    """Fleet grouping key for training: structure with per-member knobs
    (dropout rate) masked, plus the loss token.  Models sharing this
    fingerprint (and a batch size) can train as one fleet."""
    return fleet_fingerprint(model, extra=("train", loss_token(loss_fn)))


def compile_fleet_training(models, loss_fn=mse_loss) -> FleetTrainingPlan:
    """Compile K same-fleet-fingerprint models + ``loss_fn`` into one
    stacked training plan; raises :class:`UnsupportedLayerError` on
    mixed structures or unsupported layers/losses (callers fall back to
    sequential per-model training)."""
    return FleetTrainingPlan(models, loss_fn)
