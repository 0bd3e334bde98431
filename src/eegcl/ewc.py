"""Elastic weight consolidation: diagonal Fisher importance + quadratic anchor.

After each training stage the harness records the trained parameters as an
anchor and adds that stage's diagonal Fisher estimate into a running sum
(the online variant — one anchor, accumulated importances — so the state
stays O(n_params) no matter how many subjects pass). During later stages the
penalty (lambda/2) * sum_i F_i (theta_i - anchor_i)^2 pulls parameters that
mattered before back toward where they were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, number
from .models import Params, gradient
from .training import stack_trials

DEFAULT_LAMBDA = 100.0
# The rule for the penalty strength; harness.EwcConfig checks its lam with it.
LAMBDA = number(0)


@dataclass(frozen=True)
class FisherAnchor:
    """Anchor parameters, per-parameter importances, and penalty strength."""

    anchor: np.ndarray
    fisher: np.ndarray
    lam: float

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=np.float64)
        fisher = np.asarray(self.fisher, dtype=np.float64)
        if anchor.ndim != 1 or fisher.shape != anchor.shape:
            raise ShapeError(
                f"anchor and fisher must be matching 1-D vectors, "
                f"got {anchor.shape} and {fisher.shape}"
            )
        if not np.all(np.isfinite(fisher)) or np.any(fisher < 0):
            raise ValueError("fisher entries must be finite and >= 0")
        LAMBDA.check(self.lam, "ewc lambda")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "fisher", fisher)


def fisher_diagonal(model, params: Params, xy) -> np.ndarray:
    """Mean squared per-sample gradient of the negative log-likelihood over
    an (x, y) pair of arrays, with every trial's gradient taken from one
    batched backward pass."""
    x, y = stack_trials(xy)
    g = gradient(model, params, x, y, per_sample=True)
    return np.einsum("np,np->p", g, g) / len(x)


def penalty(vector: np.ndarray, anchor: FisherAnchor) -> tuple:
    """Quadratic anchoring term: returns (scalar, gradient vector)."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != anchor.anchor.shape:
        raise ShapeError(
            f"parameter vector shape {vector.shape} does not match "
            f"anchor shape {anchor.anchor.shape}"
        )
    diff = vector - anchor.anchor
    scalar = 0.5 * anchor.lam * float(np.sum(anchor.fisher * diff * diff))
    grad = anchor.lam * anchor.fisher * diff
    return scalar, grad


class OnlineEwc:
    """Running EWC state across a subject stream."""

    def __init__(self, lam: float = DEFAULT_LAMBDA):
        LAMBDA.check(lam, "ewc lambda")
        self.lam = lam
        self._fisher_sum = None
        self._anchor = None

    @property
    def anchor(self):
        """Current FisherAnchor, or None before the first update."""
        if self._anchor is None:
            return None
        return FisherAnchor(anchor=self._anchor, fisher=self._fisher_sum, lam=self.lam)

    def update(self, model, params: Params, xy):
        """Fold one finished stage in: re-anchor and add the Fisher of its
        (x, y) training arrays."""
        fisher = fisher_diagonal(model, params, xy)
        if self._fisher_sum is None:
            self._fisher_sum = fisher
        else:
            self._fisher_sum = self._fisher_sum + fisher
        self._anchor = params.vector.copy()

    def penalty_hook(self):
        """Callable for the training loop, or None before any anchor."""
        current = self.anchor
        if current is None:
            return None

        def hook(vector):
            return penalty(vector, current)

        return hook
