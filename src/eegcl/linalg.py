"""Symmetric-matrix kernels used by whitening: covariance, eigendecomposition,
inverse matrix square root.

All computation is done in float64 regardless of how trials are stored;
whitening is sensitive to the conditioning of the reference covariance and
32-bit accumulation is not good enough. Outputs that are symmetric by
contract are symmetrized explicitly, so ``a == a.T`` holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError, number

# Largest relative asymmetry accepted before an eigendecomposition.
SYMMETRY_RTOL = 1e-10

# Relative eigenvalue floor used when the caller does not supply one.
DEFAULT_EIG_FLOOR_REL = 1e-10
# An eigenvalue floor given explicitly (inv_sqrt's eps, `eegcl align --eps`).
EIG_FLOOR = number(0, exclusive=True)


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


@dataclass(frozen=True)
class SymEigResult:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted ascending; eigenvectors has orthonormal columns,
    so V @ diag(w) @ V.T reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix.

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
    return SymEigResult(eigenvalues=w, eigenvectors=v)


def default_eig_floor(eigenvalues: np.ndarray) -> float:
    """Relative eigenvalue floor: 1e-10 x max(largest eigenvalue, 1)."""
    return DEFAULT_EIG_FLOOR_REL * max(float(eigenvalues[-1]), 1.0)


def inv_sqrt(a, eps: float | None = None) -> np.ndarray:
    """Inverse matrix square root of a symmetric PSD matrix.

    Computed as V @ diag(max(w, eps))^(-1/2) @ V.T. Eigenvalues below the
    floor are clamped to it, which keeps the result finite for
    rank-deficient input. When eps is omitted it defaults to
    1e-10 x max(largest eigenvalue, 1).
    """
    return inv_sqrt_of_eig(sym_eig(a), eps)[0]


def inv_sqrt_of_eig(eig: SymEigResult, eps: float | None = None) -> tuple:
    """inv_sqrt from an eigendecomposition: returns (matrix, floor used)."""
    if eps is None:
        eps = default_eig_floor(eig.eigenvalues)
    else:
        EIG_FLOOR.check(eps, "eps")
    v = eig.eigenvectors
    return symmetrize((v / np.sqrt(np.maximum(eig.eigenvalues, eps))) @ v.T), eps
