"""Training loop utilities: dataset splitting, minibatching, Trainer.

Implements the supervised workflow of §III: the data collected by the
runtime (inputs/outputs pairs) is split into training/validation per the
paper's "best practices" citation, and the BO inner loop trains each
candidate with these utilities.

``Trainer`` runs minibatches through the compiled training fast path
(:mod:`repro.nn.compile_train`) by default: a fused forward/backward
NumPy plan plus a vectorized optimizer, reproducing the graph path's
numerics while skipping its per-intermediate ``Tensor`` allocations.
Models, losses or optimizers without a compiled lowering fall back to
the autodiff graph automatically (``Trainer.compiled_active`` /
``Trainer.compile_fallback`` report which path ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .compile import UnsupportedLayerError
from .layers import Module
from .loss import mse_loss, rmse
from .optim import Adam, Optimizer
from .tensor import Tensor, no_grad

__all__ = ["train_val_split", "iterate_minibatches", "Trainer",
           "FleetTrainer", "TrainResult", "normalize_stats",
           "Normalizer"]


def train_val_split(x: np.ndarray, y: np.ndarray, val_fraction: float = 0.2,
                    rng: np.random.Generator | None = None,
                    return_indices: bool = False):
    """Shuffle and split arrays into train/validation partitions.

    With ``return_indices`` the ``(train_idx, val_idx)`` row-index
    arrays are returned instead of the gathered partitions, for
    callers that reweight or resample a partition (e.g. the retrain
    worker's recency bootstrap) without forking the split convention.
    """
    if len(x) != len(y):
        raise ValueError(f"x and y disagree on sample count: {len(x)} vs {len(y)}")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1): {val_fraction}")
    rng = rng or np.random.default_rng()
    n = len(x)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if return_indices:
        return train_idx, val_idx
    return (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx])


def iterate_minibatches(x: np.ndarray, y: np.ndarray, batch_size: int,
                        rng: np.random.Generator | None = None,
                        shuffle: bool = True):
    """Yield ``(xb, yb)`` minibatches covering the dataset once."""
    n = len(x)
    order = (rng or np.random.default_rng()).permutation(n) if shuffle \
        else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield x[idx], y[idx]


def _fused_epoch(plan, fused, x, y, batch_size, rng, grad_clip):
    """One epoch through a fused training plan and its optimizer — same
    minibatch order, dropout draws and losses as the graph epoch, no
    ``Tensor`` intermediates — returning the mean training loss per
    row: a float for one model, ``(n_active,)`` for a fleet."""
    total, count = 0.0, 0
    for xb, yb in iterate_minibatches(x, y, batch_size, rng):
        losses = plan.train_batch(xb, yb)
        if grad_clip is not None:
            plan.clip_gradients(grad_clip)
        fused.step()
        total = total + losses * len(xb)
        count += len(xb)
    return total / max(count, 1)


@dataclass
class Normalizer:
    """Feature-wise standardization fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


def normalize_stats(x: np.ndarray, axis=0, eps: float = 1e-8) -> Normalizer:
    mean = x.mean(axis=axis, keepdims=True)
    std = x.std(axis=axis, keepdims=True)
    std = np.where(std < eps, 1.0, std)
    return Normalizer(mean=mean, std=std)


@dataclass
class TrainResult:
    """Outcome of a training run; ``history`` holds per-epoch val loss."""

    best_val_loss: float
    epochs_run: int
    history: list = field(default_factory=list)


class Trainer:
    """Minibatch trainer with early stopping on validation loss.

    Parameters mirror the Table V hyperparameter space: learning rate,
    weight decay and batch size are the knobs the BO inner loop turns.
    """

    def __init__(self, model: Module, lr: float = 1e-3, weight_decay: float = 0.0,
                 batch_size: int = 64, max_epochs: int = 50, patience: int = 8,
                 loss_fn=mse_loss, optimizer: Optimizer | None = None,
                 seed: int = 0, grad_clip: float | None = None,
                 scheduler=None, compiled: bool = True, warm_start=None):
        self.model = model
        self.batch_size = int(batch_size)
        self.max_epochs = max_epochs
        self.patience = patience
        self.loss_fn = loss_fn
        self.rng = np.random.default_rng(seed)
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr,
                                           weight_decay=weight_decay)
        self.grad_clip = grad_clip
        #: Optional LR scheduler; stepped once per epoch.  Plateau-style
        #: schedulers (taking the validation loss) are detected by
        #: signature.
        self.scheduler = scheduler
        #: Use the compiled training fast path when the model/loss/
        #: optimizer support it; falls back to the graph automatically.
        self.compiled = compiled
        self._plan = None
        self._plan_model = None
        self._fused = None
        #: Fingerprint of the (model, loss) whose compile failed.  The
        #: latch is keyed structurally, not per fit: swapping in a
        #: supported model re-attempts compilation immediately.
        self._failed_fingerprint: str | None = None
        #: Optional fused-optimizer state from a previous Trainer (see
        #: :meth:`optimizer_state`), applied once when the plan whose
        #: fingerprint it names is compiled — warm restarts across
        #: hot-swap retrains.
        self._warm_start = warm_start
        #: True while epochs actually run through the compiled plan.
        self.compiled_active = False
        #: Human-readable reason the last compile attempt fell back.
        self.compile_fallback: str | None = None

    # -- compiled fast path ------------------------------------------------
    def _fingerprint(self) -> str:
        from .compile_train import training_fingerprint
        return training_fingerprint(self.model, self.loss_fn)

    def _ensure_compiled(self, x: np.ndarray, y: np.ndarray) -> bool:
        """(Re)compile the fused training plan if needed; False => graph.

        The plan is cached across epochs and revalidated against
        parameter rebinding (``load_state_dict``) via its staleness
        watch and against model replacement (``trainer.model = other``)
        by identity.  Any unsupported layer, loss, optimizer or dtype
        falls back silently — the graph path is always correct.  When a
        recompile preserves the structural fingerprint, the fused
        optimizer's moments are carried over instead of reset (warm
        restart); a failed compile latches on the fingerprint, so only
        the *same* structure short-circuits future attempts.
        """
        if not self.compiled:
            return False
        if self._plan is not None and self._plan_model is self.model \
                and not self._plan.stale():
            return True
        if self._failed_fingerprint is not None and \
                self._failed_fingerprint == self._fingerprint():
            # Same structure as the failed attempt: don't retry every
            # epoch.  A swapped-in model (different fingerprint) falls
            # through and compiles.
            return False
        old_plan, old_fused = self._plan, self._fused
        self._plan = self._fused = self._plan_model = None
        self.compiled_active = False
        if np.asarray(x).dtype != np.float64 or \
                np.asarray(y).dtype != np.float64:
            self.compile_fallback = "training arrays are not float64"
            self._failed_fingerprint = self._fingerprint()
            return False
        try:
            from .compile_train import compile_training
            plan = compile_training(self.model, self.loss_fn)
            fused = plan.bind_optimizer(self.optimizer)
        except UnsupportedLayerError as exc:
            self.compile_fallback = str(exc)
            self._failed_fingerprint = self._fingerprint()
            return False
        carry = None
        if old_fused is not None and type(old_fused) is type(fused) and \
                old_plan.fingerprint == plan.fingerprint:
            # Same structure, recompiled (load_state_dict / hot swap):
            # moments survive instead of resetting to zero.  The
            # fingerprint covers layout, not optimizer hyperparameters
            # (a replaced optimizer may reject the state).
            carry = old_fused.state_dict()
        elif self._warm_start is not None and \
                self._warm_start.get("fingerprint") == plan.fingerprint \
                and self._warm_start.get("kind") == type(fused).__name__:
            carry, self._warm_start = self._warm_start["state"], None
        if carry is not None:
            try:
                fused.load_state_dict(carry)
            except ValueError:
                pass            # incompatible state: cold start
        self._plan, self._fused = plan, fused
        self._plan_model = self.model
        self.compiled_active = True
        self.compile_fallback = None
        self._failed_fingerprint = None
        return True

    def optimizer_state(self) -> dict | None:
        """Portable fused-optimizer state for warm-restarting a future
        Trainer (``Trainer(..., warm_start=state)``).  Tagged with the
        plan fingerprint so it is only ever applied to a same-layout
        plan; ``None`` when training ran on the graph path."""
        if self._fused is None or self._plan is None:
            return None
        return {"fingerprint": self._plan.fingerprint,
                "kind": type(self._fused).__name__,
                "state": self._fused.state_dict()}

    def _clip_gradients(self) -> None:
        if self.grad_clip is None:
            return
        total = 0.0
        params = [p for p in self.optimizer.params if p.grad is not None]
        for p in params:
            total += float(np.vdot(p.grad, p.grad))
        norm = np.sqrt(total)
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for p in params:
                p.grad *= scale

    def _step_scheduler(self, val_loss: float) -> None:
        if self.scheduler is None:
            return
        try:
            self.scheduler.step(val_loss)
        except TypeError:
            self.scheduler.step()

    def _epoch(self, x: np.ndarray, y: np.ndarray) -> float:
        self.model.train()
        if self._ensure_compiled(x, y):
            # Snapshot the shuffle RNG and every layer RNG (Dropout) so
            # an aborted compiled attempt can be replayed on the graph
            # path with the exact same draws — the fixed-seed
            # compiled/graph equivalence contract survives the retry.
            snaps = [(self.rng, self.rng.bit_generator.state)]
            for m in self.model.modules():
                r = getattr(m, "rng", None)
                if isinstance(r, np.random.Generator):
                    snaps.append((r, r.bit_generator.state))
            try:
                return _fused_epoch(self._plan, self._fused, x, y,
                                    self.batch_size, self.rng,
                                    self.grad_clip)
            except UnsupportedLayerError as exc:
                # Shape-dependent rejection (e.g. 3-D activations into
                # an affine step) only surfaces at run time; latch and
                # fall back to the graph for this data.
                self.compile_fallback = str(exc)
                self._failed_fingerprint = self._fingerprint()
                self._plan = self._fused = self._plan_model = None
                self.compiled_active = False
                for r, state in snaps:
                    r.bit_generator.state = state
        total, count = 0.0, 0
        for xb, yb in iterate_minibatches(x, y, self.batch_size, self.rng):
            self.optimizer.zero_grad()
            pred = self.model(Tensor(xb))
            loss = self.loss_fn(pred, Tensor(yb))
            loss.backward()
            self._clip_gradients()
            self.optimizer.step()
            total += loss.item() * len(xb)
            count += len(xb)
        return total / max(count, 1)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Validation loss through the compiled inference path.

        ``forward_compiled`` falls back to the graph internally for
        unsupported layers, so this is safe for every model; both the
        compiled and graph training paths share this evaluation, which
        keeps their loss histories (and early stopping) identical.
        """
        with no_grad():
            pred = self.model.forward_compiled(x)
            loss = self.loss_fn(Tensor(pred), Tensor(y))
        return loss.item()

    def fit(self, x_train: np.ndarray, y_train: np.ndarray,
            x_val: np.ndarray, y_val: np.ndarray) -> TrainResult:
        # A replaced model with the original optimizer would compute
        # gradients on the new parameters while stepping the old ones —
        # a silent no-op fit on either path.  Fail loudly instead.
        model_ids = {id(p) for p in self.model.parameters()}
        if not all(id(p) in model_ids for p in self.optimizer.params):
            raise ValueError(
                "optimizer does not reference this trainer's model "
                "parameters; replace trainer.optimizer when replacing "
                "trainer.model")
        self._failed_fingerprint = None   # new data may be compilable
        best = float("inf")
        best_state = None
        stale = 0
        history = []
        epochs = 0
        for epoch in range(self.max_epochs):
            epochs = epoch + 1
            train_loss = self._epoch(x_train, y_train)
            val_loss = self.evaluate(x_val, y_val)
            self._step_scheduler(val_loss)
            history.append({"epoch": epoch, "train": train_loss, "val": val_loss})
            if val_loss < best - 1e-12:
                best = val_loss
                best_state = self.model.state_dict()
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return TrainResult(best_val_loss=best, epochs_run=epochs, history=history)

    def validation_rmse(self, x_val: np.ndarray, y_val: np.ndarray) -> float:
        pred = self.model.forward_compiled(x_val)
        return rmse(pred, y_val)


class FleetTrainer:
    """Train K same-fingerprint models in lockstep through one fleet plan.

    The fleet analogue of ``Trainer(compiled=True)``: one batched
    forward/backward advances every still-active member per minibatch,
    with per-member learning rate / weight decay riding as optimizer
    columns.  Each member's loss history, early-stopping epoch and
    final parameters are **bitwise** what its own sequential
    ``Trainer(model, lr=lr_k, ..., seed=seed)`` would produce — the
    shared shuffle RNG draws the same permutation sequence every
    same-seed sequential trainer would, per-member dropout masks come
    from each member's own layer RNG streams, and early-stopped members
    are compacted out of the batched kernels
    (:meth:`~repro.nn.compile_train.FleetTrainingPlan.deactivate`), so
    a finished candidate costs nothing, exactly like the sequential
    trainer that stopped.

    Raises :class:`UnsupportedLayerError` from the constructor for
    structures or losses without a fleet lowering — callers fall back
    to per-model sequential training.
    """

    def __init__(self, models, lr=1e-3, weight_decay=0.0,
                 batch_size: int = 64, max_epochs: int = 50,
                 patience: int = 8, loss_fn=mse_loss,
                 optimizer: str = "adam", momentum: float = 0.0,
                 seed: int = 0, grad_clip: float | None = None):
        from .compile_train import (FusedAdam, FusedSGD,
                                    compile_fleet_training)
        self.models = list(models)
        self.batch_size = int(batch_size)
        self.max_epochs = max_epochs
        self.patience = patience
        self.loss_fn = loss_fn
        self.grad_clip = grad_clip
        self.rng = np.random.default_rng(seed)
        self.plan = compile_fleet_training(self.models, loss_fn)
        fused = {"adam": FusedAdam, "sgd": FusedSGD}.get(optimizer)
        if fused is None:
            raise ValueError(f"unknown fleet optimizer {optimizer!r}")
        # Per-member lr / weight decay: one value per model, or one for
        # all, as (K, 1) columns broadcasting against the slab rows.
        lr, wd = (np.array(np.broadcast_to(v, (self.plan.k,)),
                           dtype=np.float64)[:, None]
                  for v in (lr, weight_decay))
        self.optimizer = fused(self.plan, SimpleNamespace(
            lr=lr, weight_decay=wd if wd.any() else 0.0, momentum=momentum,
            beta1=0.9, beta2=0.999, eps=1e-8))
        self.plan.bind_optimizer(self.optimizer)

    @property
    def k(self) -> int:
        return self.plan.k

    def _evaluate_stacked(self, x_val, y_val) -> np.ndarray:
        """Per-member validation losses (member order), via the stacked
        evaluation forward + the graph loss — bitwise the sequential
        ``Trainer.evaluate``."""
        pred = self.plan.eval_forward(x_val)
        out = np.full(self.k, np.nan)
        yt = Tensor(y_val)
        for row in range(self.plan.n_active):
            member = self.plan.member_at[row]
            with no_grad():
                out[member] = self.loss_fn(Tensor(pred[row]), yt).item()
        return out

    def fit(self, x_train, y_train, x_val, y_val) -> list:
        """Train every member; returns ``TrainResult`` per member, in
        the order the models were given."""
        plan, opt = self.plan, self.optimizer
        k = plan.k
        best = [float("inf")] * k
        best_snap = [None] * k
        stale = [0] * k
        history = [[] for _ in range(k)]
        epochs = [0] * k
        x_train = np.asarray(x_train)
        y_train = np.asarray(y_train)
        for m in self.models:
            m.train()
        for epoch in range(self.max_epochs):
            if plan.n_active == 0:
                break
            train = _fused_epoch(plan, opt, x_train, y_train,
                                 self.batch_size, self.rng, self.grad_clip)
            val_losses = self._evaluate_stacked(x_val, y_val)
            retiring = []
            for row in range(plan.n_active):
                member = plan.member_at[row]
                epochs[member] = epoch + 1
                val_loss = float(val_losses[member])
                history[member].append({"epoch": epoch,
                                        "train": train[row],
                                        "val": val_loss})
                if val_loss < best[member] - 1e-12:
                    best[member] = val_loss
                    best_snap[member] = plan.snapshot_member(member)
                    stale[member] = 0
                else:
                    stale[member] += 1
                    if stale[member] >= self.patience:
                        retiring.append(member)
            for member in retiring:
                plan.deactivate(member)
        for member in range(k):
            if best_snap[member] is not None:
                plan.restore_member(member, best_snap[member])
        plan.sync_members()
        for m in self.models:
            m.eval()
        return [TrainResult(best_val_loss=best[m], epochs_run=epochs[m],
                            history=history[m]) for m in range(k)]
