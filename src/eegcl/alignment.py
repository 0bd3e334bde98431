"""Per-subject Euclidean alignment.

Each subject's trials are whitened by the inverse square root of their mean
trial covariance, so that after alignment the subject's mean covariance is
the identity. This removes second-order (covariance) differences between
subjects without touching labels and is the fast domain-adaptation step of
the decoding pipeline. The reference covariance is computed once per
subject over the stacked training trials, with one batched matmul, and
whiten_subject is the one way a subject is whitened.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import Split, SubjectDataset
from .errors import EmptyInputError, ShapeError
from .linalg import covariances, inv_sqrt_of_eig, sym_eig
from .linalg import covariance  # noqa: F401  traced as alignment.covariance by bench/

logger = logging.getLogger(__name__)

# Above this condition number the whitener is still computed, but the
# result is numerically fragile and a warning is emitted.
CONDITION_WARN = 1e8


@dataclass(frozen=True)
class AlignmentReport:
    """What one alignment pass computed.

    reference_covariance: mean of the per-trial covariances (C x C).
    whitener: its inverse square root; symmetric.
    condition_number: max eigenvalue over floored min eigenvalue of the
        reference covariance, clamped to >= 1.
    eigenvalue_floor_applied: whether any eigenvalue had to be clamped.
    """

    reference_covariance: np.ndarray
    whitener: np.ndarray
    condition_number: float
    eigenvalue_floor_applied: bool


def reference_covariance(trials) -> np.ndarray:
    """Elementwise mean of the per-trial covariances.

    trials is an (n, channels, time) array, or a list of equal-shape
    (channels, time) trials, read once as float64; anything else, a ragged
    list included, is a ShapeError, and no trials an EmptyInputError. Every
    covariance comes from one batched matmul (linalg.covariances); they
    are then summed in input-index order in float64, which is bitwise the
    mean of the per-trial covariances.
    """
    try:
        x = np.asarray(trials, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"trials must share one (channels, time) shape ({exc})") from exc
    if x.shape[:1] == (0,):
        raise EmptyInputError("reference covariance of no trials")
    if x.ndim != 3:
        raise ShapeError(f"trials must form an (n, channels, time) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("trial contains non-finite entries")
    return covariances(x).sum(axis=0) / len(x)


def compute_whitener(
    ref_cov: np.ndarray, eps: float | None = None
) -> AlignmentReport:
    """Inverse square root of a reference covariance, with conditioning info.

    eps is the eigenvalue floor; when omitted it defaults to
    1e-10 x max(largest eigenvalue, 1).
    """
    w, v = sym_eig(ref_cov)
    whitener, eps = inv_sqrt_of_eig(w, v, eps)
    floored = bool(w[0] < eps)
    condition = max(1.0, float(w[-1]) / max(float(w[0]), eps))
    if condition > CONDITION_WARN:
        logger.warning(
            "reference covariance is ill-conditioned (condition number %.3e); "
            "whitened data may be unreliable",
            condition,
        )
    return AlignmentReport(
        reference_covariance=ref_cov,
        whitener=whitener,
        condition_number=condition,
        eigenvalue_floor_applied=floored,
    )


def whiten_subject(dataset: SubjectDataset, eps: float | None = None) -> tuple:
    """Whiten a subject against their own training split.

    Returns (aligned SubjectDataset, AlignmentReport). The whitener comes
    from the training trials alone; every trial of every split is then
    whitened with it in one matmul and rounded to float32 once.
    """
    report = compute_whitener(reference_covariance(dataset.arrays(Split.TRAIN)[0]), eps)
    aligned = np.matmul(report.whitener, dataset.block.astype(np.float64))
    return replace(dataset, block=aligned.astype(np.float32)), report

