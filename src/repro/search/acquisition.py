"""Acquisition functions: expected improvement and UCB (minimization)."""

from __future__ import annotations

import numpy as np

__all__ = ["expected_improvement", "lower_confidence_bound"]


def expected_improvement(mean: np.ndarray, std: np.ndarray,
                         best: float, xi: float = 0.01) -> np.ndarray:
    """EI for minimization: expected amount below ``best - xi``."""
    from scipy.stats import norm  # deferred: see gp.py
    std = np.maximum(std, 1e-12)
    improvement = best - xi - mean
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def lower_confidence_bound(mean: np.ndarray, std: np.ndarray,
                           kappa: float = 2.0) -> np.ndarray:
    """LCB utility (higher is better for minimization): ``-(μ - κσ)``."""
    return -(mean - kappa * std)
