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

    Trials must be non-empty, finite and share one (channels, time) shape;
    a trial of another shape is a ShapeError naming its index. The trials
    are stacked once and all their covariances come from one batched
    matmul (linalg.covariances); they are then summed in input-index order
    in float64, which is bitwise the mean of the per-trial covariances.
    """
    trials = list(trials)
    if not trials:
        raise EmptyInputError("reference covariance of an empty trial list")
    shape = np.shape(trials[0])
    if len(shape) != 2:
        raise ShapeError(f"trial must be 2-D, got shape {shape}")
    for i, t in enumerate(trials):
        if np.shape(t) != shape:
            raise ShapeError(f"trial {i} has shape {np.shape(t)}, expected {shape}")
    x = np.array(trials, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("trial contains non-finite entries")
    return covariances(x).sum(axis=0) / len(trials)


def compute_whitener(
    ref_cov: np.ndarray, eps: float | None = None
) -> AlignmentReport:
    """Inverse square root of a reference covariance, with conditioning info.

    eps is the eigenvalue floor; when omitted it defaults to
    1e-10 x max(largest eigenvalue, 1).
    """
    eig = sym_eig(ref_cov)
    whitener, eps = inv_sqrt_of_eig(eig, eps)
    floored = bool(eig.eigenvalues[0] < eps)
    condition = max(1.0, float(eig.eigenvalues[-1]) / max(float(eig.eigenvalues[0]), eps))
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


def align_subject(trials, eps: float | None = None):
    """Whiten trials against their own mean covariance.

    Returns (aligned float64 trials, AlignmentReport). Each aligned trial has
    the same shape as its input, and the mean covariance of the aligned set
    is the identity whenever the reference covariance is well conditioned.
    """
    trials = list(trials)
    report = compute_whitener(reference_covariance(trials), eps)
    return list(np.matmul(report.whitener, np.array(trials, dtype=np.float64))), report
