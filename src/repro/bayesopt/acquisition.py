"""Acquisition functions for Bayesian Optimization.

The paper uses Expected Improvement (Eq. 9):

``EI(w) = (mu(w) - p_best) * Phi(z) + sigma(w) * phi(z)``  with
``z = (mu(w) - p_best) / sigma(w)``,

where the first term rewards predicted improvement and the second rewards
uncertainty.  Upper Confidence Bound (UCB) is provided as an alternative
(an extension beyond the paper, useful for ablations).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SearchError
from .gp import GaussianProcessRegressor


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_value: float,
    xi: float = 0.0,
) -> np.ndarray:
    """Expected Improvement for a maximisation problem (paper Eq. 9).

    Parameters
    ----------
    mean, std:
        Posterior mean and standard deviation at the candidate points.
    best_value:
        Best observed performance so far (``p_best``).
    xi:
        Optional exploration margin added to ``p_best``.
    """
    # Imported here, not at module level: scipy.stats costs most of the time
    # ``import repro`` takes.  ndtr is the function scipy.stats.norm.cdf
    # calls, so the values are bit-identical.
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != std.shape:
        raise SearchError("mean and std must have the same shape")
    improvement = mean - best_value - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    # The standard normal density, written as scipy.stats.norm.pdf computes it.
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    ei = improvement * ndtr(z) + std * pdf
    # Where the posterior is (numerically) deterministic, EI reduces to the
    # positive part of the improvement.
    ei = np.where(std > 1e-12, ei, np.maximum(improvement, 0.0))
    return ei


def upper_confidence_bound(mean: np.ndarray, std: np.ndarray, kappa: float = 2.0) -> np.ndarray:
    """UCB acquisition ``mu + kappa * sigma`` (maximisation)."""
    if kappa < 0:
        raise SearchError("kappa must be non-negative")
    return np.asarray(mean, dtype=np.float64) + kappa * np.asarray(std, dtype=np.float64)


class AcquisitionFunction:
    """Callable wrapper selecting EI or UCB over a candidate set."""

    def __init__(self, kind: str = "ei", xi: float = 0.0, kappa: float = 2.0) -> None:
        kind = kind.lower()
        if kind not in ("ei", "ucb"):
            raise SearchError(f"unknown acquisition {kind!r}; use 'ei' or 'ucb'")
        self.kind = kind
        self.xi = xi
        self.kappa = kappa

    def __call__(
        self,
        model: GaussianProcessRegressor,
        candidates: np.ndarray,
        best_value: float,
    ) -> np.ndarray:
        """Score every candidate under the fitted performance model."""
        mean, std = model.predict(candidates, return_std=True)
        if self.kind == "ei":
            return expected_improvement(mean, std, best_value, xi=self.xi)
        return upper_confidence_bound(mean, std, kappa=self.kappa)
