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
:class:`CompiledTrainingPlan`:

* **fused forward** — affine/conv/recurrent steps over raw ndarrays
  into preallocated per-batch-size scratch, stashing only the
  activations the backward pass needs (zero ``Tensor`` wrappers);
* **hand-derived backward** — per-step adjoints that replay the exact
  op sequence of the autodiff graph (same formulas, same association
  where it matters) and write parameter gradients straight into
  per-parameter views of one flat, preallocated gradient buffer;
* **fused optimizer** — :class:`FusedAdam` / :class:`FusedSGD` run the
  moment updates vectorized over the flat gradient/moment buffers
  (decoupled weight decay, in-place parameter updates) instead of a
  Python loop of temporaries per parameter.  Both expose
  ``state_dict()`` / ``load_state_dict()`` over the flat moment
  buffers, and plans carry a structural fingerprint — together these
  let moments survive a same-structure recompile (warm restarts across
  ``load_state_dict``, hot-swap retrains, repeated ``fit()`` calls);
* **in-place global-norm clipping** — :meth:`CompiledTrainingPlan.
  clip_gradients` accumulates per-parameter ``np.vdot`` and rescales
  the flat buffer in place.

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
    """Loss value + seed gradient, mirroring the graph op sequence."""

    __slots__ = ("kind", "delta", "eps")

    def __init__(self, kind, delta=1.0, eps=1e-8):
        super().__init__(True)
        self.kind = kind
        self.delta = delta
        self.eps = eps

    def run(self, pred, target, n):
        if pred.shape != target.shape:
            raise ValueError(f"loss shape mismatch: {pred.shape} vs "
                             f"{target.shape}")
        s = self.scratch(n)
        d = _buf(s, "d", pred.shape)
        np.subtract(pred, target, out=d)
        inv = 1.0 / d.size
        g = _buf(s, "g", pred.shape)
        t = _buf(s, "t", pred.shape)
        kind = self.kind
        if kind == "mse":
            np.multiply(d, d, out=t)
            val = float(t.sum() * inv)
            # Graph: two (1/N)*diff accumulations — exact doubling.
            np.multiply(d, inv, out=g)
            np.add(g, g, out=g)
            return val, g
        if kind == "l1":
            np.abs(d, out=t)
            val = float(t.sum() * inv)
            np.sign(d, out=g)
            np.multiply(g, inv, out=g)
            return val, g
        if kind == "mape":
            denom = np.maximum(np.abs(target), self.eps)
            np.abs(d, out=t)
            np.divide(t, denom, out=t)
            val = float(t.sum() * inv)
            np.sign(d, out=g)
            np.multiply(g, inv, out=g)
            np.divide(g, denom, out=g)
            return val, g
        # huber: a = |d|; quad = clip(a, 0, delta); lin = a - quad;
        # loss = (quad*quad*0.5 + lin*delta).mean()
        delta = self.delta
        a = np.abs(d)
        quad = np.clip(a, 0.0, delta)
        lin = a - quad
        val = float((quad * quad * 0.5 + lin * delta).sum() * inv)
        gq = quad * (inv * 0.5)
        gq += gq
        gq -= inv * delta
        mask = (a >= 0.0) & (a <= delta)
        ga = inv * delta + gq * mask
        np.sign(d, out=g)
        np.multiply(g, ga, out=g)
        return val, g


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
# Fused optimizers over flat gradient/moment buffers
# ----------------------------------------------------------------------

class FusedAdam:
    """Vectorized Adam/AdamW step over a plan's flat gradient buffer.

    Reads hyperparameters (``lr``, betas, ``eps``, ``weight_decay``)
    from the source :class:`~repro.nn.optim.Adam` on every step, so LR
    schedulers mutating ``optimizer.lr`` keep working.  Moment buffers
    are flat; the per-parameter tail applies decoupled weight decay and
    the in-place ``p -= lr * update`` (which, unlike the graph
    optimizer's rebinding update, lets compiled inference plans keep
    watching the same arrays).  ``state_dict`` / ``load_state_dict``
    move the flat moments between same-layout plans (equal structural
    fingerprints), which is how warm restarts survive a recompile.
    """

    __slots__ = ("plan", "src", "m", "v", "_u", "_s", "t", "_segs")

    def __init__(self, plan, src):
        n = plan.n_flat
        self.plan = plan
        self.src = src
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._u = np.empty(n)
        self._s = np.empty(n)
        self.t = int(src._t)
        self._segs = [
            (p.data.reshape(-1), self._u[lo:hi], plan.grads[lo:hi])
            for p, (lo, hi) in zip(plan.params, plan.offsets)]

    def state_dict(self) -> dict:
        """Flat moment state, copy-safe for carrying across recompiles."""
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
        lr, wd = src.lr, src.weight_decay
        b1, b2, eps = src.beta1, src.beta2, src.eps
        self.t += 1
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        G, M, V, U, S = self.plan.grads, self.m, self.v, self._u, self._s
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
        # Per-parameter tail: decoupled decay + in-place update.  The
        # gradient segment doubles as scratch (it is rewritten by the
        # next backward pass anyway).  Without decay the lr scale runs
        # once over the flat buffer instead of per segment.
        if wd:
            for pflat, useg, gseg in self._segs:
                np.multiply(pflat, wd, out=gseg)
                useg += gseg
                np.multiply(useg, lr, out=gseg)
                np.subtract(pflat, gseg, out=pflat)
        else:
            U *= lr
            for pflat, useg, _gseg in self._segs:
                np.subtract(pflat, useg, out=pflat)


class FusedSGD:
    """Vectorized SGD (momentum, L2 decay) over the flat gradient buffer."""

    __slots__ = ("plan", "src", "vel", "_s", "_segs")

    def __init__(self, plan, src):
        n = plan.n_flat
        self.plan = plan
        self.src = src
        self.vel = np.zeros(n) if src.momentum else None
        self._s = np.empty(n)
        self._segs = [
            (p.data.reshape(-1), self._s[lo:hi], plan.grads[lo:hi])
            for p, (lo, hi) in zip(plan.params, plan.offsets)]

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
        lr, mom, wd = src.lr, src.momentum, src.weight_decay
        G = self.plan.grads
        if wd:
            for pflat, sseg, gseg in self._segs:
                np.multiply(pflat, wd, out=sseg)
                gseg += sseg
        if mom:
            V = self.vel
            V *= mom
            V += G
            upd = V
        else:
            upd = G
        S = self._s
        np.multiply(upd, lr, out=S)
        for pflat, sseg, _gseg in self._segs:
            np.subtract(pflat, sseg, out=pflat)


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------

class CompiledTrainingPlan:
    """A fused forward/backward training closure over raw ndarrays.

    ``train_batch(x, y)`` runs one minibatch — forward with train-mode
    semantics, loss, and backward — leaving parameter gradients in
    per-parameter views of the flat :attr:`grads` buffer, and returns
    the scalar loss.  Pair with :meth:`bind_optimizer` for the fused
    update and :meth:`clip_gradients` for global-norm clipping.
    """

    __slots__ = ("_steps", "_loss", "params", "offsets", "n_flat", "grads",
                 "grad_views", "_watch", "_struct_watch", "summary",
                 "n_layers", "n_fused", "_keys", "_need_gx", "fingerprint")

    def __init__(self, steps, loss_plan, watch, struct_watch, summary,
                 n_layers, n_fused, fingerprint):
        self._steps = tuple(steps)
        self._loss = loss_plan
        params = []
        for step in self._steps:
            params.extend(step.grad_params)
        self.params = tuple(params)
        sizes = [p.data.size for p in self.params]
        bounds = np.concatenate(([0], np.cumsum(sizes))).astype(int)
        self.offsets = tuple((int(bounds[i]), int(bounds[i + 1]))
                             for i in range(len(sizes)))
        self.n_flat = int(bounds[-1])
        self.grads = np.zeros(self.n_flat)
        self.grad_views = tuple(
            self.grads[lo:hi].reshape(p.data.shape)
            for p, (lo, hi) in zip(self.params, self.offsets))
        self._watch = tuple(watch)
        self._struct_watch = tuple(struct_watch)
        self.summary = tuple(summary)
        self.n_layers = n_layers
        self.n_fused = n_fused
        self._keys: set = set()
        #: Structural digest of the lowered (model, loss) pair.  Equal
        #: fingerprints => identical flat-buffer layout, so fused
        #: optimizer moments may be carried across a recompile.
        self.fingerprint = fingerprint
        # Late-bind gradient views into the steps (built before the
        # flat buffer exists).
        cursor = 0
        for step in self._steps:
            k = len(step.grad_params)
            if k:
                step.bind_grads(self.grad_views[cursor:cursor + k])
                cursor += k
        # A step only needs an input gradient if some *earlier* step
        # holds parameters — skips the input-gradient GEMM of the first
        # parameterized step and the backward sweeps of leading
        # Standardize/Flatten steps (those gradients were discarded
        # anyway).
        need = []
        seen_params = False
        for step in self._steps:
            need.append(seen_params)
            if step.grad_params:
                seen_params = True
        self._need_gx = tuple(need)

    def stale(self) -> bool:
        """True when the plan no longer describes the model.

        Trips on parameter-array rebinding (``load_state_dict``) and on
        structural ``Sequential`` mutation; the fused optimizer's
        in-place updates do **not** flip staleness.
        """
        for obj, name, arr in self._watch:
            if getattr(obj, name) is not arr:
                return True
        for ref, layer_list, n_layers in self._struct_watch:
            seq = ref()
            if seq is None or seq.layers is not layer_list or \
                    len(layer_list) != n_layers:
                return True
        return False

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

    def train_batch(self, x, y) -> float:
        """One fused forward/backward minibatch; returns the loss."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.dtype != np.float64 or y.dtype != np.float64:
            raise TypeError("compiled training requires float64 arrays")
        n = x.shape[0]
        if n not in self._keys:
            if len(self._keys) > 16:
                for step in self._steps:
                    step.clear()
                self._loss.clear()
                self._keys.clear()
            self._keys.add(n)
        h = x
        for step in self._steps:
            h = step.forward(h, n)
        loss, g = self._loss.run(h, y, n)
        steps = self._steps
        need_gx = self._need_gx
        for i in range(len(steps) - 1, -1, -1):
            g = steps[i].backward(g, n, need_gx[i])
            if g is None:
                break
        return loss

    def clip_gradients(self, max_norm: float) -> float:
        """Global-norm clip, in place on the flat gradient buffer."""
        total = 0.0
        for view in self.grad_views:
            total += float(np.vdot(view, view))
        norm = float(np.sqrt(total))
        if norm > max_norm:
            self.grads *= max_norm / (norm + 1e-12)
        return norm

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
    if not any(step.grad_params for step in ctx.steps):
        raise UnsupportedLayerError("model has no trainable parameters")
    return CompiledTrainingPlan(ctx.steps, loss_plan, ctx.watch,
                                struct_watch, ctx.summary, n_layers,
                                ctx.n_fused,
                                training_fingerprint(model, loss_fn))


# ----------------------------------------------------------------------
# Fleet training: K same-fingerprint candidates in lockstep
# ----------------------------------------------------------------------

class _FleetLoss:
    """Per-member loss values + stacked seed gradient.

    Wraps one :class:`_CompiledLoss` and runs it member by member —
    the loss is a cheap elementwise tail next to the batched GEMMs, and
    looping guarantees member ``k``'s value/gradient are bitwise what
    its own sequential plan computes (shared reductions would change
    the ``1/N`` scale).
    """

    __slots__ = ("single", "_bufs")

    def __init__(self, single: _CompiledLoss):
        self.single = single
        self._bufs: dict = {}

    def run(self, pred, target, n):
        na = pred.shape[0]
        bufs = self._bufs.setdefault(n, {})
        g = bufs.get("g")
        if g is None or g.shape != pred.shape:
            g = bufs["g"] = np.empty(pred.shape)
            bufs["d"] = np.empty(pred.shape)
            bufs["t"] = np.empty(pred.shape)
        if self.single.kind == "mse":
            # Batched fast path: every op is elementwise (or a
            # per-member reduce with the sequential association), so
            # member rows stay bitwise — no Python loop over K.
            d, t = bufs["d"], bufs["t"]
            np.subtract(pred, target, out=d)
            inv = 1.0 / pred[0].size
            np.multiply(d, d, out=t)
            vals = t.reshape(na, -1).sum(axis=1) * inv
            np.multiply(d, inv, out=g)
            np.add(g, g, out=g)
            return vals, g
        vals = np.empty(na)
        for i in range(na):
            vals[i], gi = self.single.run(pred[i], target, n)
            np.copyto(g[i], gi)
        return vals, g[:na]

    def clear(self):
        self.single.clear()
        self._bufs.clear()


class FleetTrainingPlan:
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

    __slots__ = ("k", "n_active", "n_flat", "pslab", "cslab", "grads",
                 "_steps", "_loss", "_psegs", "_csegs", "summary",
                 "n_layers", "n_fused", "fingerprint", "_entry",
                 "_need_gx", "row_of", "member_at", "_opt")

    def __init__(self, models, loss_fn=mse_loss):
        single_loss = _resolve_loss(loss_fn)
        ctx, _struct, n_layers = lower_fleet(models, training=True)
        if not any(step.param_sources() for step in ctx.steps):
            raise UnsupportedLayerError("models have no trainable "
                                        "parameters")
        self.k = ctx.k
        self.n_active = ctx.k
        self._steps = tuple(ctx.steps)
        self._loss = _FleetLoss(single_loss)
        self.summary = tuple(ctx.summary)
        self.n_layers = n_layers
        self.n_fused = ctx.n_fused
        self.fingerprint = fleet_training_fingerprint(models[0], loss_fn)
        self._entry = _StackedEntry(self._steps)
        self.row_of = list(range(self.k))
        self.member_at = list(range(self.k))
        self._opt = None
        # Parameters get a slab of their own: the fleet optimizers step
        # whole ``pslab[:n_active]`` / ``grads[:n_active]`` blocks.
        self._psegs, self.n_flat = _source_segments(self._steps, "param")
        self._csegs, n_const = _source_segments(self._steps, "const")
        self.pslab = np.empty((self.k, self.n_flat))
        self.cslab = np.empty((self.k, max(n_const, 1)))
        self.grads = np.zeros((self.k, self.n_flat))
        for row in range(self.k):
            _fill_slab_row(self.pslab, row, self._psegs, "param")
            _fill_slab_row(self.cslab, row, self._csegs, "const")
        _bind_slabs(self._steps, self._psegs, self.pslab,
                    self._csegs, self.cslab, grads=self.grads)
        need, seen = [], False
        for step in self._steps:
            need.append(seen)
            if step.param_sources():
                seen = True
        self._need_gx = tuple(need)

    # -- optimizer / member management ------------------------------------
    def bind_optimizer(self, opt) -> None:
        """Register the fleet optimizer so member compaction swaps its
        per-member state rows alongside the slab rows."""
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

    def train_batch(self, x, y) -> np.ndarray:
        """One fused minibatch for every active member, on a shared
        ``(B, *features)`` batch or ``n_active`` stacked ones; returns
        the ``(n_active,)`` per-member losses in *row* order (map to
        member order via :attr:`member_at`)."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.dtype != np.float64 or y.dtype != np.float64:
            raise TypeError("fleet training requires float64 arrays")
        h, n = self._enter(x)
        for step in self._steps:
            h = step.forward(h, n)
        vals, g = self._loss.run(h, y, n)
        steps = self._steps
        need_gx = self._need_gx
        for i in range(len(steps) - 1, -1, -1):
            g = steps[i].backward(g, n, need_gx[i])
            if g is None:
                break
        return vals

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

    def clip_gradients(self, max_norm: float) -> np.ndarray:
        """Per-member global-norm clip, in place on the gradient slab
        rows (same per-parameter ``np.vdot`` association as the
        sequential plan)."""
        na = self.n_active
        norms = np.empty(na)
        for row in range(na):
            total = 0.0
            for (_step, _si, lo, hi, _shape) in self._psegs:
                seg = self.grads[row, lo:hi]
                total += float(np.vdot(seg, seg))
            norm = float(np.sqrt(total))
            norms[row] = norm
            if norm > max_norm:
                self.grads[row] *= max_norm / (norm + 1e-12)
        return norms

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
