"""Noise-feature generation and augmentation tests."""

import re

import numpy as np
import pytest

from cluster_sense.dataset import LabeledDataset, compute_stats, generate_dim_like
from cluster_sense.experiment import noise_sequence_seed
from cluster_sense.perturb import (
    InvalidNoiseRange,
    NoiseKind,
    NoiseSpec,
    append_noise,
)

import oracles


def _gaussian_spec(mu=0.0, sigma=1.0, seed=0):
    return NoiseSpec(kind=NoiseKind.GAUSSIAN, mu=mu, sigma=sigma, seed=seed)


def _uniform_spec(mu=2.0, sigma=1.0, seed=0):
    return NoiseSpec(kind=NoiseKind.UNIFORM, mu=mu, sigma=sigma, seed=seed)


class TestNoiseKind:
    def test_codes_distinct(self):
        # Each noise kind keys its own noise sequence in the sweep's seed table.
        seeds = {noise_sequence_seed(11, 0, kind) for kind in NoiseKind}
        assert len(seeds) == len(NoiseKind)


class TestNoiseSpec:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(kind=NoiseKind.GAUSSIAN, mu=0.0, sigma=-1.0)

    def test_from_stats_pooled(self):
        # The sweep's spec takes the mean and std pooled over every entry.
        ds = generate_dim_like(8, 4, 32, 10.0, seed=1)
        stats = compute_stats(ds)
        spec = NoiseSpec(NoiseKind.GAUSSIAN, stats.mu, stats.sigma, seed=5)
        assert spec.mu == float(ds.points.mean())
        assert spec.sigma == float(ds.points.std())
        assert spec.seed == 5


def _zeros_base(n):
    """A one-feature, one-cluster baseline of n rows; append_noise reads only its n."""
    return LabeledDataset(points=np.zeros((n, 1)), labels=np.zeros(n, dtype=int))


class TestGaussianParams:
    def test_invariant_formulas_hold(self):
        spec = _gaussian_spec(mu=3.0, sigma=2.0)
        for seed in range(200):
            mu_r, sigma_r = oracles.gaussian_column_params(spec, seed, 0)
            assert 0.0 <= sigma_r <= 2.0 * spec.sigma
            assert abs(mu_r) <= spec.mu + spec.sigma
            column = append_noise(_zeros_base(3), spec, 1, seed=seed)[:, 0]
            assert np.array_equal(column, oracles.noise_column(spec, seed, 0, 3))

    def test_example_values(self):
        # mu=0, sigma=1 with eta=0.5, sign=+1, eta2=0.5, sign2=+1 would give
        # mu_r=0.5 and sigma_r=1.5; check the formulas at those inputs.
        spec = _gaussian_spec(mu=0.0, sigma=1.0)
        assert 1 * (spec.mu + spec.sigma) * 0.5 == 0.5
        assert spec.sigma * (1 + 1 * 0.5) == 1.5

    def test_degenerate_sigma_zero_mu_zero(self):
        spec = _gaussian_spec(mu=0.0, sigma=0.0)
        assert oracles.gaussian_column_params(spec, 4, 0) == (0.0, 0.0)
        values = append_noise(_zeros_base(7), spec, 3, seed=4)
        assert np.all(values == 0.0)

    def test_sign_balance(self):
        spec = _gaussian_spec(mu=1.0, sigma=1.0)
        columns = append_noise(_zeros_base(2), spec, 2000)
        signs = []
        for j in range(2000):
            assert np.array_equal(columns[:, j], oracles.noise_column(spec, 0, j, 2))
            signs.append(np.sign(oracles.gaussian_column_params(spec, 0, j)[0]))
        assert 0.45 < np.mean(np.array(signs) == 1) < 0.55


class TestGaussianFeature:
    def test_sample_moments_match_drawn_params(self):
        spec = _gaussian_spec(mu=0.0, sigma=1.0)
        n = 100_000
        mu_r, sigma_r = oracles.gaussian_column_params(spec, 17, 0)
        values = append_noise(_zeros_base(n), spec, 1, seed=17)[:, 0]
        assert abs(values.mean() - mu_r) < 4 * sigma_r / np.sqrt(n)
        assert abs(values.std() - sigma_r) < 0.05 * sigma_r

    def test_deterministic(self):
        spec = _gaussian_spec(mu=2.0, sigma=0.5)
        a = append_noise(_zeros_base(100), spec, 3, seed=9)
        b = append_noise(_zeros_base(100), spec, 3, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "mu, sigma", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (0.0, np.inf)]
    )
    def test_parameters_that_are_not_finite_are_rejected(self, mu, sigma):
        # The pooled stats of entries near +-1e308 are mu = sigma = nan; every
        # column drawn from them would be NaN or infinite. A plain ValueError
        # keeps such sweep cells error:value-error.
        spec = _gaussian_spec(mu=mu, sigma=sigma)
        message = "gaussian .*" + re.escape(f"mu={mu}, sigma={sigma}")
        with pytest.raises(ValueError, match=message) as info:
            append_noise(_zeros_base(10), spec, 2)
        assert type(info.value) is ValueError
        # No column is drawn at count 0, so the parameters are not checked.
        assert append_noise(_zeros_base(10), spec, 0).shape == (10, 0)


class TestUniformFeature:
    def test_range_mu2_sigma1(self):
        spec = _uniform_spec(mu=2.0, sigma=1.0)
        values = append_noise(_zeros_base(50_000), spec, 1, seed=3)
        assert values.min() >= -4.0
        assert values.max() <= 4.0
        assert values.min() < -3.9
        assert values.max() > 3.9

    def test_range_mu0_sigma_half(self):
        spec = _uniform_spec(mu=0.0, sigma=0.5)
        values = append_noise(_zeros_base(50_000), spec, 1, seed=3)
        assert values.min() >= -1.0
        assert values.max() <= 1.0

    def test_inverted_range_rejected_with_diagnostic(self):
        spec = _uniform_spec(mu=-3.0, sigma=1.0)
        with pytest.raises(InvalidNoiseRange, match="mu=-3.0.*sigma=1.0"):
            append_noise(_zeros_base(10), spec, 1)
        # No column is drawn at count 0, so the range is not checked.
        assert append_noise(_zeros_base(10), spec, 0).shape == (10, 0)

    @pytest.mark.parametrize(
        "mu, sigma", [(1e308, 1e308), (0.0, np.inf), (np.inf, 0.0), (np.nan, 1.0), (1.0, np.nan)]
    )
    def test_bound_that_is_not_finite_is_rejected(self, mu, sigma):
        # A pooled sigma that overflows gives an infinite or NaN bound, which
        # rng.uniform cannot draw from.
        spec = _uniform_spec(mu=mu, sigma=sigma)
        with pytest.raises(InvalidNoiseRange, match=re.escape(f"mu={mu}, sigma={sigma}")):
            append_noise(_zeros_base(10), spec, 1)


# (kind, mu, sigma) cases: sigma = 0, mu < 0 and a tiny sigma beside a large
# mu, for both kinds; (0, 0) gives no valid uniform range.
_NOISE_CASES = [
    (kind, mu, sigma)
    for kind in NoiseKind
    for mu, sigma in [(0.0, 1.0), (2.5, 0.5), (-1.0, 3.0), (1e3, 1e-3), (0.0, 0.0), (1.5, 0.0)]
    if kind is NoiseKind.GAUSSIAN or mu + 2.0 * sigma > 0
]


class TestAppendNoise:
    @pytest.mark.parametrize(
        "kind, mu, sigma", _NOISE_CASES, ids=[f"{k.value}-{m}-{s}" for k, m, s in _NOISE_CASES]
    )
    @pytest.mark.parametrize("seed", [0, 5, (7, 2)], ids=str)
    def test_matches_oracle_column_for_column(self, kind, mu, sigma, seed):
        spec = NoiseSpec(kind=kind, mu=mu, sigma=sigma)
        columns = append_noise(_zeros_base(7), spec, 5, seed=seed)
        for j in range(5):
            assert np.array_equal(columns[:, j], oracles.noise_column(spec, seed, j, 7))

    def test_count_zero_is_identity(self):
        base = generate_dim_like(4, 2, 8, 10.0, seed=1)
        columns = append_noise(base, _gaussian_spec(seed=2), 0)
        assert columns.shape == (base.n_points, 0)
        assert np.array_equal(np.hstack([base.points, columns]), base.points)

    def test_two_to_one_ratio(self):
        base = generate_dim_like(32, 4, 8, 10.0, seed=1)
        columns = append_noise(base, _gaussian_spec(seed=2), 64)
        assert columns.shape == (32, 64)
        assert columns.shape[1] / base.n_features == 2.0
        assert np.hstack([base.points, columns]).shape == (32, 96)

    def test_dim128_example_ratio(self):
        base = generate_dim_like(128, 2, 4, 10.0, seed=1)
        columns = append_noise(base, _gaussian_spec(seed=2), 256)
        assert (columns.shape[1], base.n_features) == (256, 128)
        assert columns.shape[1] / base.n_features == 2.0

    def test_prefix_property_gaussian(self):
        base = generate_dim_like(4, 2, 16, 10.0, seed=1)
        spec = _gaussian_spec(mu=1.0, sigma=2.0, seed=77)
        short = append_noise(base, spec, 5)
        long = append_noise(base, spec, 12)
        assert np.array_equal(long[:, :5], short)

    def test_prefix_property_uniform(self):
        base = generate_dim_like(4, 2, 16, 10.0, seed=1)
        spec = _uniform_spec(mu=2.0, sigma=1.0, seed=77)
        short = append_noise(base, spec, 3)
        long = append_noise(base, spec, 9)
        assert np.array_equal(long[:, :3], short)

    def test_explicit_seed_overrides_spec_seed(self):
        base = generate_dim_like(4, 2, 16, 10.0, seed=1)
        spec = _gaussian_spec(seed=77)
        default = append_noise(base, spec, 4)
        same = append_noise(base, spec, 4, seed=77)
        other = append_noise(base, spec, 4, seed=78)
        tupled = append_noise(base, spec, 4, seed=(77, 1))
        assert np.array_equal(default, same)
        assert not np.array_equal(default, other)
        assert not np.array_equal(default, tupled)

    def test_label_independence(self):
        base = generate_dim_like(4, 2, 16, 10.0, seed=1)
        permuted = LabeledDataset(
            points=base.points,
            labels=(base.labels + 1) % base.n_clusters,
        )
        spec = _gaussian_spec(mu=1.0, sigma=2.0, seed=5)
        assert np.array_equal(
            append_noise(base, spec, 6), append_noise(permuted, spec, 6)
        )

    def test_gaussian_columns_have_distinct_means(self):
        base = generate_dim_like(4, 4, 128, 10.0, seed=1)
        stats = compute_stats(base)
        spec = NoiseSpec(NoiseKind.GAUSSIAN, stats.mu, stats.sigma, seed=13)
        column_means = append_noise(base, spec, 64).mean(axis=0)
        # Per-column mu_r values spread over +-(mu+sigma); if all columns
        # shared one mean, the spread would be the standard error ~sigma/sqrt(n).
        standard_error = spec.sigma / np.sqrt(base.n_points)
        assert column_means.std() > 5 * standard_error

    def test_rejects_negative_count(self):
        base = generate_dim_like(4, 2, 8, 10.0, seed=1)
        with pytest.raises(ValueError, match="count"):
            append_noise(base, _gaussian_spec(), -1)

    def test_uniform_inverted_range_propagates(self):
        base = LabeledDataset(
            points=np.full((8, 2), -10.0) + np.arange(8)[:, None] * 0.1,
            labels=[0, 0, 0, 0, 1, 1, 1, 1],
        )
        stats = compute_stats(base)
        spec = NoiseSpec(NoiseKind.UNIFORM, stats.mu, stats.sigma)
        with pytest.raises(InvalidNoiseRange):
            append_noise(base, spec, 1)
