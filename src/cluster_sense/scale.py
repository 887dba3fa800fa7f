"""Preprocessing regimes applied to the augmented matrix before clustering."""

from __future__ import annotations

import enum

import numpy as np


class ScalingKind(enum.Enum):
    NONE = "none"
    CENTERED = "centered"
    STANDARDIZED = "standardized"


def _require_finite(statistic: np.ndarray, name: str) -> None:
    if not np.isfinite(statistic).all():
        raise ValueError(f"column {np.argmin(np.isfinite(statistic))}'s {name} is not finite")


def apply_scaling(
    matrix: np.ndarray, kind: ScalingKind, out: np.ndarray | None = None
) -> np.ndarray:
    """Return the scaled matrix: a new array, or `out` written in place.

    none: identity copy. centered: subtract each column's mean.
    standardized: centered, then divided by the column's population standard
    deviation; constant columns become exactly 0.

    out, when given, must be a float64 array of the matrix's shape, and may be
    the matrix itself: every statistic is taken from the input before `out`
    is written, so the result has the same bits as a copy would. With
    kind = none and `out` the matrix itself, nothing is written at all, so
    that matrix may be read-only: the call only checks it and returns it.
    Nothing is written when the call raises: a column whose mean, std or
    largest deviation from its mean overflows float64 raises a ValueError
    naming it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] < 2:
        raise ValueError(f"at least 2 rows are required, got {matrix.shape[0]}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    if out is None:
        out = np.empty_like(matrix)
    elif out.dtype != np.float64 or out.shape != matrix.shape:
        raise ValueError(
            f"out must be a float64 array of shape {matrix.shape}, "
            f"got {out.dtype} {out.shape}"
        )

    if kind is ScalingKind.NONE:
        if out is not matrix:
            np.copyto(out, matrix)
        return out
    # Entries near the float64 limit can overflow a column's mean, its std,
    # or its deviations from a finite mean: that raises here, before `out`
    # is written, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        if kind is ScalingKind.STANDARDIZED:
            # A constant column's mean can round off its value, leaving a
            # residue with a std of about 1e-16 that would be scaled up to
            # unit size, so it is centered on its own value instead: exactly 0.
            constant = (matrix == matrix[0]).all(axis=0)
            mean[constant] = matrix[0, constant]
            sigma = np.where(constant, 1.0, matrix.std(axis=0))
            _require_finite(sigma, "std")
        _require_finite(mean, "mean")
        reach = np.maximum(matrix.max(axis=0) - mean, mean - matrix.min(axis=0))
        _require_finite(reach, "deviation from its mean")
    np.subtract(matrix, mean, out=out)
    if kind is ScalingKind.STANDARDIZED:
        np.divide(out, sigma, out=out)
    return out
