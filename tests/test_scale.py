"""Scaling regime tests."""

import warnings

import numpy as np
import pytest

from cluster_sense.dataset import generate_dim_like
from cluster_sense.experiment import cell_kmeans_seed
from cluster_sense.kmeans import KMeansConfig, fit
from cluster_sense.perturb import NoiseKind
from cluster_sense.scale import ScalingKind, apply_scaling


class TestScalingKind:
    def test_codes_distinct(self):
        # Above level 0, each scaling keys its own k-means seeds.
        seeds = {cell_kmeans_seed(11, 0, NoiseKind.GAUSSIAN, kind, 1, 0) for kind in ScalingKind}
        assert len(seeds) == len(ScalingKind)


class TestApplyScaling:
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    @pytest.mark.parametrize("kind", list(ScalingKind))
    def test_rejects_a_matrix_that_is_not_2d(self, kind, shape):
        with pytest.raises(ValueError) as raised:
            apply_scaling(np.zeros(shape), kind)
        assert str(raised.value) == f"matrix must be 2-D, got shape {shape}"

    def test_none_is_identity_copy(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = apply_scaling(matrix, ScalingKind.NONE)
        assert np.array_equal(out, matrix)
        out[0, 0] = 99.0
        assert matrix[0, 0] == 1.0

    def test_none_in_place_writes_nothing(self):
        # The sweep passes a read-only column prefix of a shared curve matrix
        # as both matrix and out: none checks it and returns it unwritten.
        curve = np.random.default_rng(11).normal(size=(6, 5))
        curve.flags.writeable = False
        before = curve.tobytes()
        prefix = curve[:, :3]
        assert apply_scaling(prefix, ScalingKind.NONE, out=prefix) is prefix
        assert apply_scaling(curve, ScalingKind.NONE, out=curve) is curve
        assert curve.tobytes() == before
        bad = np.array([[1.0], [np.inf]])
        bad.flags.writeable = False
        with pytest.raises(ValueError, match="finite"):
            apply_scaling(bad, ScalingKind.NONE, out=bad)

    def test_centered_column(self):
        out = apply_scaling(np.array([[1.0], [2.0], [3.0]]), ScalingKind.CENTERED)
        assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])

    def test_standardized_column(self):
        out = apply_scaling(np.array([[1.0], [2.0], [3.0]]), ScalingKind.STANDARDIZED)
        assert np.allclose(out[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
        # Population sigma: sqrt(2/3), not the sample value.
        assert out[2, 0] == pytest.approx(1.0 / np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_constant_column_standardized_to_zero(self):
        out = apply_scaling(np.array([[5.0], [5.0], [5.0]]), ScalingKind.STANDARDIZED)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("value", [2.7279133916445373, -12.487488903344154, 0.1])
    def test_constant_column_whose_mean_rounds_off_is_standardized_to_zero(self, value):
        # The mean of three copies of these values is not the value, so the
        # centered column is a residue of about 1e-15 with a nonzero std.
        column = np.full(3, value)
        assert column.std() != 0.0
        matrix = np.column_stack([column, [1.0, 2.0, 4.0]])
        out = apply_scaling(matrix, ScalingKind.STANDARDIZED)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].tobytes() == apply_scaling(matrix[:, 1:], ScalingKind.STANDARDIZED).tobytes()

    def test_standardized_moments(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(3.0, 2.5, size=(200, 6)) * np.arange(1, 7)
        out = apply_scaling(matrix, ScalingKind.STANDARDIZED)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-9)

    def test_standardize_idempotent(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(50, 4)) * 7.0 + 3.0
        once = apply_scaling(matrix, ScalingKind.STANDARDIZED)
        twice = apply_scaling(once, ScalingKind.STANDARDIZED)
        assert np.allclose(once, twice, atol=1e-12)

    @pytest.mark.parametrize("kind", list(ScalingKind))
    def test_out_gets_the_bytes_of_a_copy(self, kind):
        # Constant columns, one of them with a mean that rounds off its
        # value, beside varying ones: `out` may be the matrix itself, so
        # every statistic must be read before the first write. Off-center
        # columns give a std with other bits when it is taken after centering.
        rng = np.random.default_rng(10)
        matrix = np.column_stack(
            [
                rng.normal(size=(40, 4)) * 2.5 + [3.0, 1e3, 1e6, 1e8],
                np.full(40, 2.7279133916445373),
                np.full(40, -4.0),
                rng.uniform(-1e3, 1e3, size=40),
            ]
        )
        expected = apply_scaling(matrix.copy(), kind)
        into = np.empty_like(matrix)
        assert apply_scaling(matrix, kind, out=into) is into
        assert into.tobytes() == expected.tobytes()
        in_place = matrix.copy()
        assert apply_scaling(in_place, kind, out=in_place) is in_place
        assert in_place.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "out", [np.empty((3, 1)), np.empty((2, 2)), np.empty((3, 2), dtype=np.float32)]
    )
    def test_out_of_another_shape_or_dtype_is_rejected(self, out):
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            apply_scaling(np.ones((3, 2)), ScalingKind.CENTERED, out=out)

    def test_rejected_matrix_is_not_written(self):
        matrix = np.array([[1.0], [np.inf]])
        with pytest.raises(ValueError, match="finite"):
            apply_scaling(matrix, ScalingKind.STANDARDIZED, out=matrix)
        assert matrix.tolist() == [[1.0], [np.inf]]

    @pytest.mark.parametrize(
        "kind, column, stat",
        [
            # The column sum overflows, so the mean is inf, and so is the std
            # taken around it.
            (ScalingKind.CENTERED, [1e308, 1e308, 1e308], "mean"),
            (ScalingKind.STANDARDIZED, [1e308, 1e308, -1e308], "std"),
            # The mean is 0 but the squared deviations overflow.
            (ScalingKind.STANDARDIZED, [1e200, -1e200, 1e200, -1e200], "std"),
        ],
        ids=["centered-sum", "standardized-sum", "standardized-squares"],
    )
    def test_overflowing_column_statistic_is_rejected_before_writing(self, kind, column, stat):
        # A std of inf used to turn the column into zeros inside an ok cell.
        matrix = np.column_stack([[1.0, 2.0, 4.0, 8.0][: len(column)], column])
        before = matrix.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"column 1's {stat} is not finite"):
                apply_scaling(matrix, kind, out=matrix)
        assert matrix.tobytes() == before.tobytes()

    def test_centered_column_whose_deviations_overflow_is_rejected_before_writing(self):
        # The mean, 5.7e307, is finite, but 5.7e307 - (-1.7e308) is not: the
        # subtraction used to print a numpy overflow warning.
        matrix = np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [1.7e308, 3.0]])
        before = matrix.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="column 0's deviation from its mean is not"):
                apply_scaling(matrix, ScalingKind.CENTERED, out=matrix)
        assert matrix.tobytes() == before.tobytes()

    def test_constant_column_near_the_limit_is_standardized_to_zero(self):
        # Its mean overflows, but a constant column becomes 0 whatever its
        # mean and std, so nothing is reported.
        matrix = np.column_stack([np.full(3, 1e308), [1.0, 2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_scaling(matrix, ScalingKind.STANDARDIZED)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].tobytes() == apply_scaling(matrix[:, 1:], ScalingKind.STANDARDIZED).tobytes()

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="2 rows"):
            apply_scaling(np.array([[1.0, 2.0]]), ScalingKind.CENTERED)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            apply_scaling(np.array([[1.0], [np.inf]]), ScalingKind.NONE)

    def test_centering_preserves_kmeans_assignments(self):
        # Centering is a per-column translation, so with the same initial
        # center rows Lloyd should settle on the same assignments.
        ds = generate_dim_like(6, 4, 25, 10.0, seed=14)
        centered = apply_scaling(ds.points, ScalingKind.CENTERED)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            idx = rng.choice(ds.n_points, size=4, replace=False)
            config = KMeansConfig(k=4, max_iterations=50, tolerance=0.0)
            raw = fit(ds.points, config, initial_centers=ds.points[idx])
            cen = fit(centered, config, initial_centers=centered[idx])
            assert np.array_equal(raw.assignments, cen.assignments)
            assert raw.iterations == cen.iterations
