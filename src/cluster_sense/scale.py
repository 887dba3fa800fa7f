"""Preprocessing regimes applied to the augmented matrix before clustering."""

from __future__ import annotations

import enum

import numpy as np


class ScalingKind(enum.Enum):
    NONE = "none"
    CENTERED = "centered"
    STANDARDIZED = "standardized"

    @property
    def code(self) -> int:
        return _SCALING_CODES[self]

    @classmethod
    def parse(cls, token: str) -> "ScalingKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown scaling {token!r} (expected none, centered or standardized)"
            ) from None


_SCALING_CODES = {ScalingKind.NONE: 0, ScalingKind.CENTERED: 1, ScalingKind.STANDARDIZED: 2}


def apply_scaling(matrix: np.ndarray, kind: ScalingKind) -> np.ndarray:
    """Return a scaled copy of the matrix.

    none: identity copy. centered: subtract each column's mean.
    standardized: centered, then divided by the column's population standard
    deviation; constant columns become exactly 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] < 2:
        raise ValueError(f"at least 2 rows are required, got {matrix.shape[0]}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")

    if kind is ScalingKind.NONE:
        return matrix.copy()
    centered = matrix - matrix.mean(axis=0)
    if kind is ScalingKind.CENTERED:
        return centered
    # A constant column's mean can round off its value, leaving a residue
    # with a std of about 1e-16 that would be scaled up to unit size.
    constant = (matrix == matrix[0]).all(axis=0)
    sigma = matrix.std(axis=0)
    sigma[constant] = 1.0
    scaled = centered / sigma
    scaled[:, constant] = 0.0
    return scaled
