"""Optimizers: SGD (momentum) and Adam/AdamW with decoupled weight decay.

The Table V hyperparameter space tunes learning rate and weight decay;
both optimizers here accept those knobs so the BO inner loop can sweep
them directly.  Their vectorized twins, stepping one model or a fleet
of K in lockstep, are :class:`~repro.nn.compile_train.FusedAdam` and
:class:`~repro.nn.compile_train.FusedSGD`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and L2 decay."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data = p.data - self.lr * g


class Adam(Optimizer):
    """Adam with decoupled weight decay (AdamW semantics).

    Decoupled decay keeps the regularization strength independent of the
    adaptive step size, which matters when BO sweeps ``weight_decay``
    over two orders of magnitude (Table V).
    """

    def __init__(self, params, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

