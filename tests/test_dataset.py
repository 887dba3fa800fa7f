"""Dataset generator, text loader, and stats tests."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cluster_sense.dataset import (
    DatasetFormatError,
    LabeledDataset,
    compute_stats,
    generate_dim_like,
    load_dataset,
    save_dataset,
)
from cluster_sense.kmeans import KMeansConfig, fit
from cluster_sense.metrics import adjusted_rand_index, contingency


class TestLabeledDataset:
    def test_valid_construction(self):
        ds = LabeledDataset(points=[[0.0, 1.0], [2.0, 3.0]], labels=[1, 0])
        assert ds.n_points == 2
        assert ds.n_clusters == 2
        assert ds.n_features == 2
        assert ds.points.dtype == np.float64

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="labels length"):
            LabeledDataset(points=[[0.0], [1.0]], labels=[0])

    def test_rejects_missing_cluster_id(self):
        with pytest.raises(ValueError, match="cover every id"):
            LabeledDataset(points=[[0.0], [1.0]], labels=[0, 2])
        with pytest.raises(ValueError, match=re.escape("cover every id in [0, 1)")):
            LabeledDataset(points=[[0.0], [1.0]], labels=[-1, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LabeledDataset(points=[[np.nan], [1.0]], labels=[0, 1])


class TestGenerator:
    @pytest.mark.parametrize("clusters, separation", [(3, 1e308), (2, 1.7e308), (1000, 1e306)])
    def test_separation_past_the_float64_range_is_named(self, clusters, separation):
        # Raised before any draw, so no numpy overflow warning is printed
        # (tier-1 turns one into an error).
        message = f"separation {separation!r} with {clusters} clusters"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_dim_like(2, clusters, 1, separation, seed=0)

    def test_widest_separation_that_fits_float64_generates(self):
        # 1.6e308 + 0.1 * 1.6e308 is below the float64 maximum, 1.797e308.
        ds = generate_dim_like(2, 2, 4, 1.6e308, seed=0)
        assert np.all(np.isfinite(ds.points))
        assert ds.n_clusters == 2

    def test_paper_scale_shape(self):
        ds = generate_dim_like(32, 16, 64, 10.0, seed=7)
        assert ds.points.shape == (1024, 32)
        assert ds.n_clusters == 16
        assert np.array_equal(np.unique(ds.labels), np.arange(16))
        assert np.all(np.bincount(ds.labels) == 64)

    def test_single_cluster(self):
        ds = generate_dim_like(1, 1, 5, 10.0, seed=0)
        assert ds.points.shape == (5, 1)
        assert np.all(ds.labels == 0)

    def test_deterministic(self):
        a = generate_dim_like(8, 4, 16, 10.0, seed=3)
        b = generate_dim_like(8, 4, 16, 10.0, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        c = generate_dim_like(8, 4, 16, 10.0, seed=4)
        assert not np.array_equal(a.points, c.points)

    def test_centers_separated_on_every_axis(self):
        ds = generate_dim_like(6, 5, 30, 10.0, seed=11)
        centers = np.array([ds.points[ds.labels == c].mean(axis=0) for c in range(5)])
        # Empirical centers sit within ~1.5 sigma/sqrt(30) of the true ones, so
        # any two must still differ by most of the 10-unit spacing per axis.
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.all(np.abs(centers[i] - centers[j]) > 5.0)

    def test_unit_variance_blobs(self):
        ds = generate_dim_like(4, 3, 2000, 50.0, seed=2)
        for c in range(3):
            blob = ds.points[ds.labels == c]
            assert np.allclose(blob.std(axis=0), 1.0, atol=0.1)

    def test_two_well_separated_blobs_recoverable(self):
        ds = generate_dim_like(2, 2, 50, 20.0, seed=1)
        result = fit(ds.points, KMeansConfig(k=2, seed=0))
        assert adjusted_rand_index(contingency(result.assignments, ds.labels)) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_dim_like(0, 2, 5, 10.0, seed=0)
        with pytest.raises(ValueError):
            generate_dim_like(2, 0, 5, 10.0, seed=0)
        with pytest.raises(ValueError):
            generate_dim_like(2, 2, 0, 10.0, seed=0)
        with pytest.raises(ValueError):
            generate_dim_like(2, 2, 5, 0.0, seed=0)

    @pytest.mark.parametrize("separation", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_separation(self, separation):
        # An infinite spacing used to reach rng.uniform and overflow there.
        with pytest.raises(ValueError, match="separation must be positive and finite"):
            generate_dim_like(2, 2, 5, separation, seed=0)


class TestStats:
    def test_two_point_column(self):
        ds = LabeledDataset(points=[[0.0], [2.0]], labels=[0, 1])
        stats = compute_stats(ds)
        assert stats.mu == 1.0
        assert stats.sigma == 1.0

    def test_constant_matrix(self):
        ds = LabeledDataset(points=[[1.0, 1.0], [1.0, 1.0]], labels=[0, 1])
        stats = compute_stats(ds)
        assert stats.mu == 1.0
        assert stats.sigma == 0.0

    def test_population_not_sample_std(self):
        ds = LabeledDataset(points=[[0.0], [1.0], [2.0]], labels=[0, 1, 2])
        stats = compute_stats(ds)
        assert stats.sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_translation_equivariance(self):
        ds = generate_dim_like(4, 3, 20, 10.0, seed=5)
        shifted = LabeledDataset(points=ds.points + 13.5, labels=ds.labels)
        base = compute_stats(ds)
        moved = compute_stats(shifted)
        scale = max(1.0, abs(base.mu))
        assert abs(moved.mu - (base.mu + 13.5)) < 1e-9 * scale
        assert abs(moved.sigma - base.sigma) < 1e-9 * scale

    def test_centered_copy_has_zero_feature_means(self):
        ds = generate_dim_like(6, 4, 32, 10.0, seed=9)
        centered = LabeledDataset(
            points=ds.points - ds.points.mean(axis=0),
            labels=ds.labels,
        )
        stats = compute_stats(centered)
        assert abs(stats.mu) < 1e-9 * np.abs(ds.points).max()

    def test_rejects_single_row(self):
        ds = LabeledDataset(points=[[1.0, 2.0]], labels=[0])
        with pytest.raises(ValueError, match="at least 2 rows"):
            compute_stats(ds)

    def test_stats_that_overflow_are_nan_without_a_warning(self, tmp_path):
        # The 4-row file of entries at +-1e308: the pooled sums overflow.
        # The noise draw names the mu and sigma that are not finite, so
        # compute_stats prints no numpy warning of its own.
        data, labels = tmp_path / "d.txt", tmp_path / "l.txt"
        data.write_text("1e308 1e308\n-1e308 -1e308\n1e308 -1e308\n-1e308 1e308\n")
        labels.write_text("0\n0\n1\n1\n")
        ds = load_dataset(data, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = compute_stats(ds)
        assert math.isnan(stats.mu) and math.isnan(stats.sigma)


def _traced_load(tmp_path):
    """Save an 8192 x 16 dataset and load it under tracemalloc: the dataset,
    the loaded one, the traced peak and the data file's size."""
    data, labels = tmp_path / "d.txt", tmp_path / "l.txt"
    ds = generate_dim_like(16, 16, 512, 10.0, seed=1)
    save_dataset(ds, data, labels)
    tracemalloc.start()
    try:
        loaded = load_dataset(data, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ds, loaded, peak, data.stat().st_size


class TestLoader:
    def test_loading_holds_a_small_multiple_of_the_file(self, tmp_path):
        # n = 8192, d = 16: a 2.4 MB file. The file is read one line at a
        # time and each row goes into the point buffer as it is parsed, so
        # the traced peak is well under the file's size (see the next test).
        # Holding a list of Python floats per row until the end would take
        # it above 4 times.
        ds, loaded, peak, size = _traced_load(tmp_path)
        assert loaded.points.tobytes() == ds.points.tobytes()
        assert peak < 3 * size

    def test_loading_does_not_hold_the_file_text(self, tmp_path):
        # Reading the whole text and splitting it held the file's bytes, its
        # decoded string and its list of lines at once: about 2.2 times the
        # file's size.
        ds, loaded, peak, size = _traced_load(tmp_path)
        assert size > 2_400_000
        assert loaded.points.tobytes() == ds.points.tobytes()
        assert np.array_equal(loaded.labels, ds.labels)
        assert peak < 1.8 * size

    def test_smallest_well_formed_input(self, tmp_path):
        data = tmp_path / "data.txt"
        labels = tmp_path / "labels.txt"
        data.write_text("0 0\n1 1\n")
        labels.write_text("1\n2\n")
        ds = load_dataset(data, labels)
        assert ds.points.shape == (2, 2)
        assert ds.labels.tolist() == [0, 1]
        assert ds.n_clusters == 2

    def test_remap_preserves_first_appearance_order(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("0\n1\n2\n3\n")
        labels.write_text("7\n3\n7\n3\n")
        ds = load_dataset(data, labels)
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_ragged_row_names_line(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1 2 3\n4 5\n")
        labels.write_text("0\n1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(data, labels)

    def test_bad_token_names_line(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1 2\n3 oops\n")
        labels.write_text("0\n1\n")
        with pytest.raises(DatasetFormatError, match="line 2.*'oops'"):
            load_dataset(data, labels)

    @pytest.mark.parametrize(
        "line, token",
        [
            ("3 1_0.5", "1_0.5"),
            ("3\u00a04", "3\u00a04"),
            ("\u0663 4", "\u0663"),
            ("3\u20284", "3\u20284"),
        ],
        ids=["underscore", "no-break-space", "arabic-indic-digit", "line-separator"],
    )
    def test_data_numbers_are_ascii_only(self, tmp_path, line, token):
        # float() reads all of these; the format is ASCII base-10 split on
        # ASCII whitespace, with lines ending at a newline only.
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text(f"1 2\n{line}\n", encoding="utf-8")
        labels.write_text("0\n1\n")
        message = "line 2: invalid numeric token " + re.escape(repr(token))
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(data, labels)

    @pytest.mark.parametrize(
        "label",
        ["1_0", "\u0661", "\u00a01"],
        ids=["underscore", "arabic-indic-digit", "no-break-space"],
    )
    def test_labels_are_ascii_base_10_only(self, tmp_path, label):
        # int(label, 10) reads 1_0 as 10 and the Arabic-Indic one as 1.
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1\n2\n")
        labels.write_text(f"0\n{label}\n", encoding="utf-8")
        message = "line 2: invalid integer label " + re.escape(repr(label))
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(data, labels)

    def test_non_finite_names_first_offending_line(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1 2\n3 4\n5 nan\ninf 6\n")
        labels.write_text("0\n1\n0\n1\n")
        with pytest.raises(DatasetFormatError, match=r"d\.txt: line 3: non-finite value"):
            load_dataset(data, labels)

    def test_label_outside_int64_names_line(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1\n2\n")
        labels.write_text(f"0\n{2**63}\n")
        with pytest.raises(DatasetFormatError, match="line 2: label .* 64-bit"):
            load_dataset(data, labels)

    def test_line_count_mismatch(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1\n2\n3\n")
        labels.write_text("0\n1\n")
        with pytest.raises(DatasetFormatError, match="2 labels for 3 data lines"):
            load_dataset(data, labels)

    def test_empty_file(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("")
        labels.write_text("0\n")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(data, labels)

    def test_empty_labels_file_is_a_count_mismatch(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1\n2\n")
        labels.write_text("\n \n")
        with pytest.raises(DatasetFormatError, match=r"l\.txt: 0 labels for 2 data lines"):
            load_dataset(data, labels)

    def test_scientific_notation_and_tabs(self, tmp_path):
        data = tmp_path / "d.txt"
        labels = tmp_path / "l.txt"
        data.write_text("1e-3\t-2.5E+2\n0.5   7\n")
        labels.write_text("0\n1\n")
        ds = load_dataset(data, labels)
        assert ds.points[0, 0] == 1e-3
        assert ds.points[0, 1] == -250.0

    def test_round_trip_is_exact(self, tmp_path):
        ds = generate_dim_like(5, 3, 10, 10.0, seed=21)
        data = tmp_path / "data.txt"
        labels = tmp_path / "labels.txt"
        save_dataset(ds, data, labels)
        loaded = load_dataset(data, labels)
        assert np.array_equal(loaded.points, ds.points)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.n_clusters == ds.n_clusters

    def test_paper_scale_round_trip(self, tmp_path):
        ds = generate_dim_like(32, 16, 64, 10.0, seed=7)
        data = tmp_path / "data.txt"
        labels = tmp_path / "labels.txt"
        save_dataset(ds, data, labels)
        loaded = load_dataset(data, labels)
        assert loaded.points.shape == (1024, 32)
        assert loaded.n_clusters == 16
        assert np.all(np.bincount(loaded.labels) == 64)
