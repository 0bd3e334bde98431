"""Elastic weight consolidation: diagonal Fisher importance + quadratic anchor.

After each training stage the harness records the trained parameters as an
anchor and adds that stage's diagonal Fisher estimate into a running sum
(the online variant — one anchor, accumulated importances — so the state
stays O(n_params) no matter how many subjects pass). During later stages the
penalty (lambda/2) * sum_i F_i (theta_i - anchor_i)^2 pulls parameters that
mattered before back toward where they were.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import number
from .models import gradient

DEFAULT_LAMBDA = 100.0
# The rule for the penalty strength; harness.Strategy checks its lam with it.
LAMBDA = number(0)


def fisher_diagonal(model, params: np.ndarray, xy) -> np.ndarray:
    """Mean squared per-sample gradient of the negative log-likelihood over
    an (x, y) pair of arrays, with every trial's gradient taken from one
    batched backward pass."""
    g = gradient(model, params, *xy, per_sample=True)
    return np.einsum("np,np->p", g, g) / len(g)


def penalty(vector: np.ndarray, anchor: np.ndarray, fisher: np.ndarray, lam: float) -> tuple:
    """Quadratic anchoring term (lam/2) * sum fisher * (vector - anchor)^2
    over matching float64 vectors: returns (scalar, gradient vector)."""
    diff = vector - anchor
    scalar = 0.5 * lam * float(np.sum(fisher * diff * diff))
    grad = lam * fisher * diff
    return scalar, grad


class OnlineEwc:
    """Running EWC state across a subject stream: the last stage's trained
    parameters (anchor) and the sum of every finished stage's Fisher
    diagonal (fisher), both None before the first update."""

    def __init__(self, lam: float = DEFAULT_LAMBDA):
        LAMBDA.check(lam, "ewc lambda")
        self.lam = lam
        self.anchor = None
        self.fisher = None

    def update(self, model, params: np.ndarray, xy):
        """Fold one finished stage in: re-anchor and add the Fisher of its
        (x, y) training arrays. The sum is a new array, so a hook made
        earlier keeps the arrays it bound."""
        fisher = fisher_diagonal(model, params, xy)
        self.fisher = fisher if self.fisher is None else self.fisher + fisher
        self.anchor = params.copy()

    def penalty_hook(self):
        """Callable for the training loop over the current anchor and
        Fisher sum, or None before any anchor."""
        if self.anchor is None:
            return None
        return partial(penalty, anchor=self.anchor, fisher=self.fisher, lam=self.lam)
