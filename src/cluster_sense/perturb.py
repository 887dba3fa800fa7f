"""Irrelevant random features: the noise model and its column draws.

Appended columns never read the labels; they are pure functions of the
baseline's pooled mean/std, the noise kind, and a per-column derived RNG
stream. Column j of a sequence depends only on (seed, j), which gives the
prefix property: growing an augmentation reuses every earlier column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .seeding import derive_rng

_COLUMN_STREAM = 0xC01


class InvalidNoiseRange(ValueError):
    """Uniform noise bound mu + 2*sigma is not a positive finite number."""


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution kind plus the baseline stats that parameterize it."""

    kind: NoiseKind
    mu: float
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


def append_noise(
    base: LabeledDataset,
    spec: NoiseSpec,
    count: int,
    seed=None,
) -> np.ndarray:
    """`count` noise columns of the spec's kind, as an (n, count) array.

    The sweep stacks them to the right of the baseline's n points.
    Column j is drawn from its own RNG stream keyed by (seed, j), so for a
    fixed seed the first m columns of any longer augmentation equal the
    m-column augmentation exactly. `seed` defaults to spec.seed; passing a
    tuple of ints keys an alternative sequence (e.g. one per repeat).

    A uniform column is n draws from Uniform[-(mu + 2*sigma), +(mu + 2*sigma)];
    InvalidNoiseRange is raised when that bound is not a positive finite
    number and count > 0. A Gaussian column first draws its own parameters,
    mu_r = sign * (mu + sigma) * eta and sigma_r = sigma * (1 + sign2 * eta2),
    then n draws from Normal(mu_r, sigma_r). The draw order is fixed (eta,
    sign, eta2, sign2): eta and eta2 are Uniform[0,1), and each sign is +1
    when its own Uniform[0,1) draw is >= 0.5, else -1. ValueError is raised
    when mu or sigma is not finite and count > 0. Every check runs before
    any column is drawn.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    effective = spec.seed if seed is None else seed
    parts = effective if isinstance(effective, tuple) else (effective,)
    n = base.n_points
    bound = spec.mu + 2.0 * spec.sigma
    if spec.kind is NoiseKind.UNIFORM and count > 0 and not 0 < bound < np.inf:
        raise InvalidNoiseRange(
            f"uniform noise bound mu + 2*sigma is not a positive finite number: "
            f"mu={spec.mu}, sigma={spec.sigma} gives bound {bound}"
        )
    finite = np.isfinite([spec.mu, spec.sigma]).all()
    if spec.kind is NoiseKind.GAUSSIAN and count > 0 and not finite:
        raise ValueError(
            f"gaussian noise needs a finite mu and sigma: mu={spec.mu}, sigma={spec.sigma}"
        )
    columns = np.empty((n, count))
    for j in range(count):
        rng = derive_rng(*parts, _COLUMN_STREAM, j)
        if spec.kind is NoiseKind.UNIFORM:
            columns[:, j] = rng.uniform(-bound, bound, size=n)
        else:
            eta = rng.uniform()
            sign = 1 if rng.uniform() >= 0.5 else -1
            eta2 = rng.uniform()
            sign2 = 1 if rng.uniform() >= 0.5 else -1
            mu_r = sign * (spec.mu + spec.sigma) * eta
            sigma_r = spec.sigma * (1.0 + sign2 * eta2)
            columns[:, j] = rng.normal(mu_r, sigma_r, size=n)
    return columns
