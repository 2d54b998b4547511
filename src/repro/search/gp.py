"""Gaussian-process regression (the BO surrogate of §V-C).

Standard exact GP: Cholesky factorization of ``K + σ²I``, predictive
mean/variance, and marginal-likelihood-based hyperparameter selection
via L-BFGS over log-lengthscale/log-variance/log-noise (SciPy).

SciPy is imported by the functions that use it, not at module level:
``repro.search`` is on the import path of every harness, workflow and
serving process, and only a process that fits a GP should pay for it.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel, Matern52

__all__ = ["GaussianProcess"]


class GaussianProcess:
    """Exact GP regressor on the unit hypercube.

    Targets are standardized internally; predictions are returned on
    the original scale.
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-6,
                 optimize_hypers: bool = True):
        self.kernel = kernel or Matern52()
        self.noise = noise
        self.optimize_hypers = optimize_hypers
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol = None
        self._alpha = None

    # -- fitting -----------------------------------------------------------
    def _nll(self, log_params: np.ndarray, x: np.ndarray,
             y: np.ndarray) -> float:
        from scipy import linalg as sla
        ls, var, noise = np.exp(log_params)
        k = self.kernel.with_params(ls, var)(x, x)
        k[np.diag_indices_from(k)] += noise
        try:
            chol = sla.cholesky(k, lower=True)
        except sla.LinAlgError:
            return 1e12
        alpha = sla.cho_solve((chol, True), y)
        nll = 0.5 * y @ alpha + np.log(np.diag(chol)).sum() \
            + 0.5 * len(y) * np.log(2 * np.pi)
        return float(nll)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        from scipy import linalg as sla, optimize
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} rows but y has {len(y)}")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std

        if self.optimize_hypers and len(x) >= 4:
            x0 = np.log([self.kernel.lengthscale, self.kernel.variance,
                         max(self.noise, 1e-8)])
            bounds = [(np.log(1e-2), np.log(3.0)),
                      (np.log(1e-2), np.log(10.0)),
                      (np.log(1e-8), np.log(1e-1))]
            res = optimize.minimize(self._nll, x0, args=(x, yn),
                                    method="L-BFGS-B", bounds=bounds)
            ls, var, noise = np.exp(res.x)
            self.kernel = self.kernel.with_params(float(ls), float(var))
            self.noise = float(noise)

        k = self.kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise
        self._chol = sla.cholesky(k, lower=True)
        self._alpha = sla.cho_solve((self._chol, True), yn)
        self._x = x
        return self

    # -- prediction ---------------------------------------------------------
    def predict(self, x_new: np.ndarray):
        """Predictive mean and standard deviation at ``x_new``."""
        from scipy import linalg as sla
        if self._x is None:
            raise RuntimeError("predict() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        k_star = self.kernel(x_new, self._x)
        mean_n = k_star @ self._alpha
        v = sla.solve_triangular(self._chol, k_star.T, lower=True)
        var_n = self.kernel(x_new, x_new).diagonal() - (v * v).sum(axis=0)
        var_n = np.maximum(var_n, 1e-12)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var_n) * self._y_std
        return mean, std
