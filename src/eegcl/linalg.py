"""Symmetric-matrix kernels used by whitening: covariance, eigendecomposition,
inverse matrix square root.

All computation is done in float64 regardless of how trials are stored;
whitening is sensitive to the conditioning of the reference covariance and
32-bit accumulation is not good enough. Outputs that are symmetric by
contract are symmetrized explicitly, so ``a == a.T`` holds bitwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError

# Largest relative asymmetry accepted before an eigendecomposition.
SYMMETRY_RTOL = 1e-10

# Eigenvalues below EIG_FLOOR_REL x max(largest eigenvalue, 1) are clamped
# to that floor before an inverse square root; every whitener uses it.
EIG_FLOOR_REL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array.

    Raises ShapeError for non-2-D input and ValueError for NaN/Inf entries.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a square matrix, or each of a stack of them, with its
    transpose; the result is exactly symmetric because IEEE addition
    commutes."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def covariance(trial) -> np.ndarray:
    """Sample covariance of a channels x time trial.

    Uses the T-1 divisor: cov = (1/(T-1)) * sum_t (x_t - mu)(x_t - mu)^T
    with mu the per-channel mean over time. The result is exactly
    symmetric and positive semidefinite up to rounding.

    Raises DegenerateInputError when the trial has fewer than 2 time points.
    """
    return covariances(as_matrix(trial, "trial"))


def covariances(x: np.ndarray) -> np.ndarray:
    """The covariance of each trial in a finite float64 array of shape
    (..., channels, time), all from one (batched) matmul. Stacked trials
    get bitwise the covariances they get one at a time."""
    time = x.shape[-1]
    if time < 2:
        raise DegenerateInputError(
            f"covariance needs at least 2 time points, got {time}"
        )
    centered = x - x.mean(axis=-1, keepdims=True)
    cov = centered @ np.swapaxes(centered, -1, -2)
    cov /= time - 1
    return symmetrize(cov)


def sym_eig(a) -> tuple:
    """Eigendecomposition of a symmetric matrix: the (eigenvalues,
    eigenvectors) pair, eigenvalues ascending and eigenvectors orthonormal
    columns, so V @ diag(w) @ V.T reconstructs the input.

    The input must be square and symmetric within SYMMETRY_RTOL (relative
    to its largest entry); it is averaged with its transpose before
    decomposing so tiny accumulation asymmetries never reach LAPACK.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(symmetrize(m))
    return w, v


def inv_sqrt(a) -> np.ndarray:
    """Inverse matrix square root of a symmetric PSD matrix.

    Computed as V @ diag(max(w, floor))^(-1/2) @ V.T with floor
    EIG_FLOOR_REL x max(largest eigenvalue, 1). Eigenvalues below the floor
    are clamped to it, which keeps the result finite for rank-deficient
    input.
    """
    return inv_sqrt_of_eig(*sym_eig(a))[0]


def inv_sqrt_of_eig(w: np.ndarray, v: np.ndarray) -> tuple:
    """inv_sqrt from an eigendecomposition w, v: returns (matrix, floor used)."""
    floor = EIG_FLOOR_REL * max(float(w[-1]), 1.0)
    return symmetrize((v / np.sqrt(np.maximum(w, floor))) @ v.T), floor
