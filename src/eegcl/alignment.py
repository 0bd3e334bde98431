"""Per-subject Euclidean alignment.

Each subject's trials are whitened by the inverse square root of their mean
trial covariance, so that after alignment the subject's mean covariance is
the identity. This removes second-order (covariance) differences between
subjects without touching labels and is the fast domain-adaptation step of
the decoding pipeline. The reference covariance is computed once per
subject over the stacked training trials, with one batched matmul. The one
way to whiten a subject, whiten_subject, takes arrays its caller fetched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .linalg import covariances, inv_sqrt_of_eig, sym_eig
from .linalg import covariance  # noqa: F401  traced as alignment.covariance by bench/

logger = logging.getLogger(__name__)

# Above this condition number the whitener is still computed, but the
# result is numerically fragile and a warning is emitted.
CONDITION_WARN = 1e8


@dataclass(frozen=True)
class AlignmentReport:
    """What one alignment pass computed.

    whitener: inverse square root of the reference covariance; symmetric.
    condition_number: max eigenvalue over floored min eigenvalue of the
        reference covariance, clamped to >= 1.
    eigenvalue_floor_applied: whether any eigenvalue had to be clamped.
    """

    whitener: np.ndarray
    condition_number: float
    eigenvalue_floor_applied: bool


def reference_covariance(trials) -> np.ndarray:
    """Elementwise mean of the per-trial covariances.

    trials is an (n, channels, time) array, or a list of equal-shape
    (channels, time) trials, read once as float64; anything else, a ragged
    list and no trials included, is a ShapeError. Every covariance comes
    from one batched matmul (linalg.covariances); they are then summed in
    input-index order in float64, which is bitwise the mean of the
    per-trial covariances.
    """
    try:
        x = np.asarray(trials, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"trials must share one (channels, time) shape ({exc})") from exc
    if x.ndim != 3 or not len(x):
        raise ShapeError(f"need an (n, channels, time) array of at least one trial, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("trial contains non-finite entries")
    return covariances(x).sum(axis=0) / len(x)


def compute_whitener(ref_cov: np.ndarray) -> AlignmentReport:
    """Inverse square root of a reference covariance, with conditioning info.

    Eigenvalues are floored at linalg.EIG_FLOOR_REL x max(largest
    eigenvalue, 1).
    """
    w, v = sym_eig(ref_cov)
    whitener, floor = inv_sqrt_of_eig(w, v)
    floored = bool(w[0] < floor)
    condition = max(1.0, float(w[-1]) / max(float(w[0]), floor))
    if condition > CONDITION_WARN:
        logger.warning(
            "reference covariance is ill-conditioned (condition number %.3e); "
            "whitened data may be unreliable",
            condition,
        )
    return AlignmentReport(whitener, condition, floored)


def whiten_subject(subject_id: int, train: np.ndarray, *arrays) -> tuple:
    """Whiten a subject's trial arrays against their own training trials.

    Returns (the arrays whitened, AlignmentReport). The whitener comes from
    the (n, channels, time) train block alone; each array is whitened in
    float64 with one matmul and rounded to float32 once. Raises
    DegenerateInputError if a whitened sample overflows float32.
    """
    report = compute_whitener(reference_covariance(train))
    w = report.whitener
    with np.errstate(over="ignore"):
        aligned = tuple(np.matmul(w, x.astype(np.float64)).astype(np.float32) for x in arrays)
    if not all(np.isfinite(x).all() for x in aligned):
        raise DegenerateInputError(
            f"subject {subject_id}: whitened trials overflow float32 "
            f"(condition number {report.condition_number:.3e})"
        )
    return aligned, report
