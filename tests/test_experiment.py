"""Sweep orchestration tests: determinism, identities, tipping summaries."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cluster_sense import cli, distance, experiment
from cluster_sense import metrics as metrics_module
from cluster_sense.cli import raw_csv_text, summary_csv_text
from cluster_sense.dataset import LabeledDataset, generate_dim_like, save_dataset
from cluster_sense.experiment import (
    FileSource,
    GeneratorSource,
    SweepCell,
    SweepConfig,
    SweepResult,
    cell_kmeans_seed,
    noise_sequence_seed,
    resolve_workers,
    run_sweep,
    summarize_tipping,
    sweep_levels,
)
from cluster_sense.kmeans import KMeansConfig, fit
from cluster_sense.metrics import METRIC_NAMES, evaluate_clustering
from cluster_sense.perturb import NoiseKind, NoiseSpec, append_noise
from cluster_sense.scale import ScalingKind, apply_scaling
from cluster_sense.dataset import compute_stats

TOY = GeneratorSource(name="toy", dims=8, clusters=4, per_cluster=16, separation=10.0, seed=3)
# n = 512, d = 64..72, k = 16: wide enough that OpenBLAS runs the Lloyd and
# cell-matrix products multi-threaded when it is allowed to.
WIDE = GeneratorSource(name="wide", dims=64, per_cluster=32, seed=3)


def _toy_config(**overrides):
    defaults = dict(
        datasets=(TOY,),
        noise_kinds=(NoiseKind.GAUSSIAN, NoiseKind.UNIFORM),
        scalings=(ScalingKind.NONE, ScalingKind.STANDARDIZED),
        max_ratio=Fraction(1, 2),
        ratio_step=2,
        repeats=3,
        master_seed=11,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


# _toy_config() as a config file.
TOY_CONFIG_TEXT = """\
noise = gaussian, uniform
scaling = none, standardized
max_ratio = 1:2
ratio_step = 2
repeats = 3
master_seed = 11
[dataset]
name = toy
dims = 8
clusters = 4
per_cluster = 16
separation = 10
seed = 3
"""


def _run_toy_config(tmp_path, workers, env=None):
    """Run TOY_CONFIG_TEXT at `workers` through `python -m cluster_sense.cli`
    in a new process; return its output directory."""
    config = tmp_path / f"toy{workers}.cfg"
    config.write_text(f"workers = {workers}\n{TOY_CONFIG_TEXT}", encoding="utf-8")
    out = tmp_path / f"toy{workers}"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "cluster_sense.cli", "run", "--config", str(config)]
    subprocess.run([*command, "--out", str(out)], env=env, check=True, capture_output=True)
    return out


def _wide_config(**overrides):
    defaults = dict(datasets=(WIDE,), repeats=2, max_ratio=Fraction(1, 8), ratio_step=4)
    defaults.update(overrides)
    return _toy_config(**defaults)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _raw_values(result):
    """Every per-repeat value of a sweep, keyed by (dataset, noise, scaling,
    level, metric, repeat)."""
    return {
        (c.dataset, c.noise, c.scaling, c.level, c.metric, repeat): value
        for c in result.cells
        for repeat, value in enumerate(c.values)
    }


def _negative_source(tmp_path):
    """24 x 3 file dataset with mu + 2*sigma < 0, so uniform noise cannot be drawn."""
    rng = np.random.default_rng(0)
    points = rng.normal(size=(24, 3)) - 10.0
    points[:12] += 2.0
    ds = LabeledDataset(points=points, labels=np.repeat([0, 1], 12), n_clusters=2)
    save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
    return FileSource(
        name="negative", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
    )


class TestSources:
    def test_generator_source(self):
        ds = TOY.load()
        assert ds.name == "toy"
        assert ds.points.shape == (64, 8)

    def test_file_source_round_trip(self, tmp_path):
        ds = generate_dim_like(4, 3, 5, 10.0, seed=2)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="fromfile",
            data_path=str(tmp_path / "d.txt"),
            labels_path=str(tmp_path / "l.txt"),
        )
        loaded = source.load()
        assert loaded.name == "fromfile"
        assert np.array_equal(loaded.points, ds.points)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            _toy_config(repeats=0)
        with pytest.raises(ValueError, match="workers"):
            _toy_config(workers=-1)
        with pytest.raises(ValueError, match="max_ratio"):
            _toy_config(max_ratio=Fraction(0))
        with pytest.raises(ValueError, match="ratio_step"):
            _toy_config(ratio_step=0)
        with pytest.raises(ValueError, match="dataset"):
            _toy_config(datasets=())

    def test_duplicate_dataset_names_rejected(self):
        # Two sources named alike would merge into one curve in summary.csv.
        twin = GeneratorSource(name="toy", dims=8, seed=4)
        with pytest.raises(ValueError, match="'toy'"):
            _toy_config(datasets=(TOY, WIDE, twin))
        _toy_config(datasets=(TOY, WIDE))

    def test_repeated_noise_kinds_and_scalings_rejected(self):
        # A repeated kind or scaling would run, and write, every cell of its
        # curves twice.
        with pytest.raises(ValueError, match="noise kind 'gaussian'"):
            _toy_config(noise_kinds=(NoiseKind.GAUSSIAN, NoiseKind.UNIFORM, NoiseKind.GAUSSIAN))
        with pytest.raises(ValueError, match="scaling 'none'"):
            _toy_config(scalings=(ScalingKind.NONE, ScalingKind.NONE))

    def test_defaults(self):
        config = SweepConfig(datasets=(TOY,))
        assert config.max_ratio == Fraction(3)
        assert config.ratio_step == 1
        assert config.repeats == 50
        assert config.redraw_noise_per_repeat is False
        assert config.workers == 1


class TestSweepLevels:
    def test_dim32_full_sweep_has_97_levels(self):
        levels = sweep_levels(32, Fraction(3), 1)
        assert len(levels) == 97
        assert levels[0] == 0
        assert levels[-1] == 96

    def test_fractional_ratio_rounds_up(self):
        levels = sweep_levels(8, Fraction(1, 3), 1)
        assert list(levels) == [0, 1, 2, 3]  # ceil(8/3) = 3

    def test_step_keeps_endpoint_when_aligned(self):
        levels = sweep_levels(32, Fraction(3), 8)
        assert list(levels)[-1] == 96


class TestRunSweep:
    def test_cell_grid_is_complete(self):
        result = run_sweep(_toy_config())
        # levels 0, 2, 4 for D=8 and max_ratio 1/2; 2 noises, 2 scalings.
        assert len(result.cells) == 2 * 2 * 3 * 5
        seen = {(c.noise, c.scaling, c.level, c.metric) for c in result.cells}
        assert len(seen) == len(result.cells)
        assert all(c.repeats == 3 for c in result.cells)
        assert all(c.status == "ok" for c in result.cells)

    def test_field_for_field_determinism(self):
        a = run_sweep(_toy_config())
        b = run_sweep(_toy_config())
        assert a.cells == b.cells

    def test_worker_count_does_not_change_results(self):
        serial = run_sweep(_toy_config(workers=1))
        threaded = run_sweep(_toy_config(workers=4))
        assert serial.cells == threaded.cells

    def test_auto_workers_count_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert resolve_workers(0) == 2
        monkeypatch.delattr(experiment.os, "sched_getaffinity")
        assert resolve_workers(0) == 8

    def test_baseline_cells_equal_manual_pipeline(self):
        config = _toy_config()
        result = run_sweep(config)
        base = TOY.load()
        raw = _raw_values(result)
        for scaling in config.scalings:
            scaled = apply_scaling(base.points, scaling)
            for repeat in range(config.repeats):
                seed = cell_kmeans_seed(
                    config.master_seed, 0, NoiseKind.GAUSSIAN, scaling, 0, repeat
                )
                fitted = fit(scaled, KMeansConfig(k=base.n_clusters, seed=seed))
                report = evaluate_clustering(scaled, fitted.assignments, base.labels)
                for metric, value in report.as_dict().items():
                    for kind in config.noise_kinds:
                        assert raw[("toy", kind.value, scaling.value, 0, metric, repeat)] == value

    def test_baseline_identical_across_noise_kinds(self):
        result = run_sweep(_toy_config())
        by_kind = {}
        for cell in result.cells:
            if cell.level == 0:
                by_kind.setdefault(cell.noise, []).append(
                    (cell.scaling, cell.metric, cell.mean, cell.std)
                )
        assert by_kind["gaussian"] == by_kind["uniform"]

    def test_augmented_cells_equal_manual_pipeline(self):
        config = _toy_config(noise_kinds=(NoiseKind.GAUSSIAN,))
        result = run_sweep(config)
        base = TOY.load()
        stats = compute_stats(base)
        spec = NoiseSpec(
            NoiseKind.GAUSSIAN,
            stats.mu,
            stats.sigma,
            seed=noise_sequence_seed(config.master_seed, 0, NoiseKind.GAUSSIAN),
        )
        level = 4
        matrix = np.hstack([base.points, append_noise(base, spec, level)])
        scaled = apply_scaling(matrix, ScalingKind.NONE)
        raw = _raw_values(result)
        for repeat in range(config.repeats):
            seed = cell_kmeans_seed(
                config.master_seed, 0, NoiseKind.GAUSSIAN, ScalingKind.NONE, level, repeat
            )
            fitted = fit(scaled, KMeansConfig(k=base.n_clusters, seed=seed))
            report = evaluate_clustering(scaled, fitted.assignments, base.labels)
            for metric, value in report.as_dict().items():
                assert raw[("toy", "gaussian", "none", level, metric, repeat)] == value

    def test_std_is_population_std_of_raw_values(self):
        # Both files are read back: their floats are reprs, which parse to
        # the same doubles, so numpy's mean and std of a row's raw values,
        # taken in repeat order, equal the row's mean and std bit for bit.
        result = run_sweep(_toy_config())
        summary = _csv_rows(summary_csv_text(result))
        values = {}
        for row in _csv_rows(raw_csv_text(result)):
            key = (row["dataset"], row["noise"], row["scaling"], row["ratio"], row["metric"])
            values.setdefault(key, []).append((int(row["repeat"]), float(row["value"])))
        assert len(values) == len(summary)
        for row in summary:
            key = (row["dataset"], row["noise"], row["scaling"], row["ratio"], row["metric"])
            repeats, arr = zip(*values[key])
            assert list(repeats) == list(range(int(row["repeats"])))
            assert row["status"] == "ok"
            assert float(row["mean"]) == np.mean(arr)
            assert float(row["std"]) == np.std(arr)
            assert float(row["std"]) >= 0.0

    def test_cell_independence_under_plan_subsets(self):
        full = run_sweep(_toy_config())
        fewer_levels = run_sweep(_toy_config(max_ratio=Fraction(1, 4)))
        one_noise = run_sweep(_toy_config(noise_kinds=(NoiseKind.UNIFORM,)))
        one_scaling = run_sweep(_toy_config(scalings=(ScalingKind.STANDARDIZED,)))

        def index(result):
            return {
                (c.dataset, c.noise, c.scaling, c.level, c.metric): (c.mean, c.std, c.status)
                for c in result.cells
            }

        full_map = index(full)
        for subset in (fewer_levels, one_noise, one_scaling):
            for key, value in index(subset).items():
                assert full_map[key] == value

    def test_ratio_bookkeeping(self):
        result = run_sweep(_toy_config())
        for cell in result.cells:
            assert cell.ratio == cell.level / 8

    def test_uniform_inverted_range_marks_cells(self, tmp_path):
        config = SweepConfig(
            datasets=(_negative_source(tmp_path),),
            noise_kinds=(NoiseKind.UNIFORM,),
            scalings=(ScalingKind.NONE,),
            max_ratio=Fraction(2, 3),
            ratio_step=1,
            repeats=2,
            master_seed=1,
        )
        result = run_sweep(config)
        baseline = [c for c in result.cells if c.level == 0]
        degraded = [c for c in result.cells if c.level > 0]
        assert baseline and all(c.status == "ok" for c in baseline)
        assert degraded and all(c.status == "error:uniform-range" for c in degraded)
        assert all(math.isnan(c.mean) and math.isnan(c.std) for c in degraded)

    def test_redraw_noise_per_repeat(self):
        fixed = run_sweep(_toy_config())
        redrawn = run_sweep(_toy_config(redraw_noise_per_repeat=True))
        redrawn_again = run_sweep(_toy_config(redraw_noise_per_repeat=True))
        assert redrawn.cells == redrawn_again.cells

        def level0(result):
            return [c for c in result.cells if c.level == 0]

        def augmented(result):
            return {
                (c.noise, c.scaling, c.level, c.metric): c.mean
                for c in result.cells
                if c.level > 0
            }

        assert level0(fixed) == level0(redrawn)
        fixed_values = augmented(fixed)
        redrawn_values = augmented(redrawn)
        assert any(
            fixed_values[key] != redrawn_values[key] for key in fixed_values
        )

    def test_row_block_budget_does_not_change_summary_bytes(self, tmp_path, block_rows):
        # A file dataset with per-repeat noise: every silhouette runs once
        # per drawn matrix above level 0 and once for the shared level-0
        # matrix of each cell's repeats. In one block the sweep builds the
        # whole distance matrix and k-means++ squares its rows; in 40-row
        # blocks (40, 40, 16) silhouette computes each block itself and
        # k-means++ its own squared distances. So this also compares the two
        # D^2 sources of k-means++. n = 96 is a multiple of 8, where blocks
        # round like the whole matrix (see cluster_sense.distance), and the
        # summary bytes must not change.
        ds = generate_dim_like(4, 6, 16, 4.0, seed=5)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = _toy_config(
            datasets=(source,), max_ratio=Fraction(1), redraw_noise_per_repeat=True, repeats=2
        )
        one_block = summary_csv_text(run_sweep(config))
        block_rows(ds.n_points, 40)
        assert len(distance.row_blocks(ds.n_points)) == 3
        many_blocks = summary_csv_text(run_sweep(config))
        assert many_blocks == one_block
        assert "error" not in one_block

    def test_fixed_noise_file_sweep_never_holds_an_n_by_n_matrix(self, tmp_path, block_rows):
        # n = 512 in 64-row blocks (8 blocks). numpy reports its buffers to
        # tracemalloc, so one n x n float64 matrix alive anywhere in the sweep
        # (such as a per-cell distance cache) would put the peak above it.
        ds = generate_dim_like(4, 8, 64, 4.0, seed=6)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = _toy_config(datasets=(source,), max_ratio=Fraction(1, 2), repeats=2, workers=1)
        n = ds.n_points
        block_rows(n, 64)
        assert len(distance.row_blocks(n)) >= 4
        tracemalloc.start()
        try:
            result = run_sweep(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.status == "ok" for c in result.cells)
        assert peak < n * n * 8

    @pytest.mark.parametrize("redraw", [False, True])
    def test_stacked_matrix_is_scaled_in_place(self, monkeypatch, redraw):
        # Above level 0 a cell stacks its matrix once and scales that array
        # in place: every matrix wider than the base points comes back from
        # apply_scaling as the same object. While the repeats are fitted, the
        # matrix being fitted is the only one of them alive, and every
        # per-repeat noise draw is gone. The fixed-noise columns are shared
        # by all cells and stay alive.
        stacked, draws, wide_fits = [], [], []
        original_append = experiment.append_noise
        original_scaling = experiment.apply_scaling
        original_fit = experiment.fit

        def tracked_append(*args, **kwargs):
            columns = original_append(*args, **kwargs)
            if kwargs.get("seed") is not None:
                draws.append(weakref.ref(columns))
            return columns

        def tracked_scaling(matrix, kind, **kwargs):
            scaled = original_scaling(matrix, kind, **kwargs)
            if matrix.shape[1] > TOY.dims:
                assert scaled is matrix
                stacked.append(weakref.ref(matrix))
            return scaled

        def checked_fit(matrix, kmeans_config, **kwargs):
            assert [ref for ref in draws if ref() is not None] == []
            alive = [ref() for ref in stacked if ref() is not None]
            wide = matrix.shape[1] > TOY.dims
            assert len(alive) == wide and all(other is matrix for other in alive)
            wide_fits.append(wide)
            return original_fit(matrix, kmeans_config, **kwargs)

        monkeypatch.setattr(experiment, "append_noise", tracked_append)
        monkeypatch.setattr(experiment, "apply_scaling", tracked_scaling)
        monkeypatch.setattr(experiment, "fit", checked_fit)
        result = run_sweep(_toy_config(redraw_noise_per_repeat=redraw, workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert len(stacked) > 0 and any(wide_fits)
        assert (len(draws) > 0) == redraw

    def test_each_matrix_is_freed_before_the_next_is_drawn(self, monkeypatch):
        # With per-repeat noise a cell draws one matrix per repeat. Neither
        # the scaled matrix nor its distance matrix may still be alive when
        # the next one is drawn.
        held = []
        original_append = experiment.append_noise
        draws = []

        def tracked(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                held.append(weakref.ref(result))
                return result

            return wrapper

        def checked_append(*args, **kwargs):
            assert [ref for ref in held if ref() is not None] == []
            draws.append(1)
            return original_append(*args, **kwargs)

        monkeypatch.setattr(experiment, "append_noise", checked_append)
        for name in ("apply_scaling", "pairwise_distances"):
            monkeypatch.setattr(experiment, name, tracked(getattr(experiment, name)))
        result = run_sweep(_toy_config(redraw_noise_per_repeat=True, workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert len(draws) > 1 and len(held) > len(draws)

    def _count_distance_work(self, monkeypatch):
        calls = {"pairwise_distances": 0, "distance_rows": 0, "apply_scaling": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(experiment, "pairwise_distances")
        counted(experiment, "apply_scaling")
        counted(metrics_module, "distance_rows")
        return calls

    def test_single_block_matrix_is_built_once_per_scaled_matrix(self, monkeypatch):
        calls = self._count_distance_work(monkeypatch)
        result = run_sweep(_toy_config(redraw_noise_per_repeat=True, workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert calls["apply_scaling"] > 0
        assert calls["pairwise_distances"] == calls["apply_scaling"]
        assert calls["distance_rows"] == 0

    def test_matrix_of_several_blocks_is_never_built(self, monkeypatch, block_rows):
        calls = self._count_distance_work(monkeypatch)
        n = TOY.clusters * TOY.per_cluster
        block_rows(n, 12)
        assert len(distance.row_blocks(n)) >= 2
        result = run_sweep(_toy_config(workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert calls["pairwise_distances"] == 0
        assert calls["distance_rows"] > 0

    def test_provenance_echo(self):
        config = _toy_config()
        result = run_sweep(config)
        assert result.config == config
        assert result.version


class TestSummarizeTipping:
    def _result_from_curve(self, means):
        cells = tuple(
            SweepCell(
                dataset="toy",
                noise="uniform",
                scaling="none",
                level=i,
                ratio=float(r),
                metric="ari",
                mean=m,
                std=0.0,
                repeats=3,
                status="ok",
                values=(m, m, m),
            )
            for i, (r, m) in enumerate(means)
        )
        return SweepResult(cells=cells, config=_toy_config())

    def test_monotone_crossing(self):
        result = self._result_from_curve(
            [(0.0, 1.0), (0.5, 0.9), (1.0, 0.6), (1.5, 0.4), (2.0, 0.2)]
        )
        tipping = summarize_tipping(result, "ari", 0.5)
        assert tipping[("toy", "uniform", "none")] == 1.5

    def test_never_below_threshold(self):
        result = self._result_from_curve([(0.0, 1.0), (1.0, 0.9), (2.0, 0.8)])
        tipping = summarize_tipping(result, "ari", 0.5)
        assert tipping[("toy", "uniform", "none")] is None

    def test_step_curve(self):
        curve = [(r / 2, 1.0 if r / 2 < 2 else 0.05) for r in range(0, 7)]
        result = self._result_from_curve(curve)
        tipping = summarize_tipping(result, "ari", 0.5)
        assert tipping[("toy", "uniform", "none")] == 2.0

    def test_dip_that_recovers_does_not_count(self):
        result = self._result_from_curve(
            [(0.0, 1.0), (1.0, 0.1), (2.0, 0.9), (3.0, 0.2)]
        )
        tipping = summarize_tipping(result, "ari", 0.5)
        assert tipping[("toy", "uniform", "none")] == 3.0

    def test_unknown_metric_rejected(self):
        result = self._result_from_curve([(0.0, 1.0)])
        with pytest.raises(ValueError, match="accuracy"):
            summarize_tipping(result, "accuracy", 0.5)

    def test_error_cells_are_skipped(self):
        cells = list(self._result_from_curve([(0.0, 1.0), (1.0, 0.1)]).cells)
        cells.append(
            SweepCell(
                dataset="toy",
                noise="uniform",
                scaling="none",
                level=99,
                ratio=2.0,
                metric="ari",
                mean=math.nan,
                std=math.nan,
                repeats=3,
                status="error:uniform-range",
                values=(),
            )
        )
        result = SweepResult(cells=tuple(cells), config=_toy_config())
        tipping = summarize_tipping(result, "ari", 0.5)
        assert tipping[("toy", "uniform", "none")] == 1.0

    def test_real_sweep_keys(self):
        result = run_sweep(_toy_config())
        tipping = summarize_tipping(result, "nmi", 0.5)
        assert set(tipping) == {
            ("toy", noise, scaling)
            for noise in ("gaussian", "uniform")
            for scaling in ("none", "standardized")
        }


class TestRawRetention:
    def test_raw_rows_cover_every_cell(self):
        config = _toy_config()
        result = run_sweep(config)
        for cell in result.cells:
            assert isinstance(cell.values, tuple)
            assert len(cell.values) == config.repeats
            assert all(type(value) is float for value in cell.values)
        assert len(_raw_values(result)) == len(result.cells) * config.repeats


# Closed ranges of the metric means of an ok cell.
_METRIC_RANGES = {
    "nmi": (0.0, 1.0),
    "ri": (0.0, 1.0),
    "ari": (-1.0, 1.0),
    "silhouette": (-1.0, 1.0),
    "davies_bouldin": (0.0, math.inf),
}
# The status of every level-0 cell (the baseline, no noise) of each kind.
_DEGENERATE_BASELINE = {
    "few-distinct": "error:value-error",
    "constant-columns": "ok",
    "identical": "error:value-error",
    "huge": "error:value-error",
}


@st.composite
def _degenerate_dataset(draw, kind):
    """A dataset of one degenerate kind, with 2 to 4 labeled clusters.

    few-distinct has fewer distinct points than clusters; constant-columns
    has one or more constant columns beside a random one (values whose mean
    may round off them); identical has every point equal; huge has finite
    entries near +-1e308 of both signs, whose pooled sigma overflows.
    """
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    if kind == "few-distinct":
        values = rng.normal(size=(draw(st.integers(1, k - 1)), d)) * 3.0
        points = values[rng.integers(0, len(values), n)]
    elif kind == "constant-columns":
        constants = rng.normal(size=d) * 10.0
        points = np.column_stack([rng.normal(size=n), np.tile(constants, (n, 1))])
    elif kind == "identical":
        points = np.full((n, d), rng.normal() * 10.0)
    else:
        signs = rng.choice([-1.0, 1.0], size=(n, d))
        signs[:2, 0] = 1.0, -1.0
        points = signs * rng.uniform(0.9e308, 1e308, size=(n, d))
    return LabeledDataset(points=points, labels=labels, n_clusters=k)


class TestDegenerateInputs:
    """File datasets the sweep can only partly cluster still give a whole,
    honest summary: each cell is ok with its metrics in range, or error:<code>."""

    @pytest.mark.parametrize("kind", sorted(_DEGENERATE_BASELINE))
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(data=st.data())
    def test_every_cell_is_ok_in_range_or_an_error(self, kind, data):
        dataset = data.draw(_degenerate_dataset(kind))
        with tempfile.TemporaryDirectory() as directory:
            data_path, labels_path = Path(directory) / "d.txt", Path(directory) / "l.txt"
            save_dataset(dataset, data_path, labels_path)
            source = FileSource(
                name="degenerate", data_path=str(data_path), labels_path=str(labels_path)
            )
            config = _toy_config(
                datasets=(source,),
                scalings=tuple(ScalingKind),
                max_ratio=Fraction(1),
                ratio_step=1,
                repeats=2,
            )
            result = run_sweep(config)
        assert len(result.cells) == 2 * 3 * (dataset.n_features + 1) * len(METRIC_NAMES)
        for cell in result.cells:
            if cell.status == "ok":
                low, high = _METRIC_RANGES[cell.metric]
                assert low - 1e-12 <= cell.mean <= high + 1e-12, cell
                assert math.isfinite(cell.mean) and 0.0 <= cell.std < math.inf, cell
            else:
                assert cell.status.startswith("error:") and len(cell.status) > 6, cell
                assert math.isnan(cell.mean) and math.isnan(cell.std), cell
        baseline = {cell.status for cell in result.cells if cell.level == 0}
        assert baseline == {_DEGENERATE_BASELINE[kind]}


# The message of every golden-digest assertion: the goldens' kernel and the
# one this run's products ran on.
_GOLDEN_KERNEL = (
    "goldens recorded on OpenBLAS's SkylakeX kernel; this run's BLAS kernel is "
    f"{distance.blas_core_name()!r}"
)


class TestGoldenBytes:
    """Output bytes pinned from the code before BLAS pinning and shared row norms.

    Recorded with numpy 2.4 on its bundled OpenBLAS 0.3.31, whose SkylakeX
    (AVX-512) kernel ran every product. Another kernel or BLAS build may
    round differently and need its own record: on the Haswell (AVX2) kernel
    only the wide cases match. Each failure names the kernel that ran
    (distance.blas_core_name), so a mismatch on another CPU explains itself.
    """

    TOY_SUMMARY = "6c445a72955c30638ae63e47eed1ae2cc7d5597f9f409ab610cb6f62e9fa5482"
    TOY_RAW = "3103c482587dbc166a43f32655c19998fef36bbdc84b70c77748cc596a945bd6"

    def test_toy_summary_and_raw(self):
        result = run_sweep(_toy_config())
        assert _sha256(summary_csv_text(result)) == self.TOY_SUMMARY, _GOLDEN_KERNEL
        assert _sha256(raw_csv_text(result)) == self.TOY_RAW, _GOLDEN_KERNEL

    def test_run_writes_the_toy_summary_and_raw(self, tmp_path):
        # `run` writes raw.csv beside summary.csv with no flag.
        out = _run_toy_config(tmp_path, workers=1)
        assert _sha256((out / "summary.csv").read_text()) == self.TOY_SUMMARY, _GOLDEN_KERNEL
        assert _sha256((out / "raw.csv").read_text()) == self.TOY_RAW, _GOLDEN_KERNEL

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_summary_and_raw(self, workers):
        result = run_sweep(_wide_config(workers=workers))
        assert _sha256(summary_csv_text(result)) == (
            "a4dcea6fd9b3b0aebfaabc406d277afd7148ff7b2875ac0790bfde4085f9758f"
        ), _GOLDEN_KERNEL
        assert _sha256(raw_csv_text(result)) == (
            "94aeb4f36c95604f517b3c6d89c4973a283bdf5b5688262cb10d08408554a86f"
        ), _GOLDEN_KERNEL

    def test_toy_redraw_summary_raw_and_report(self, tmp_path):
        # Per-repeat noise draws a fresh matrix for each repeat; the report's
        # SVG panels are digested name by name in sorted order.
        result = run_sweep(_toy_config(redraw_noise_per_repeat=True))
        summary = summary_csv_text(result)
        assert _sha256(summary) == (
            "22955d5f594d1229c23c9e89fde99c977c1440fe8168d622296e1b1abb33b95e"
        ), _GOLDEN_KERNEL
        assert _sha256(raw_csv_text(result)) == (
            "cd3a21baae0b21caa5c8374fb704a22ac6a6be587139bf88b2091de394f827ef"
        ), _GOLDEN_KERNEL
        summary_path, out = tmp_path / "summary.csv", tmp_path / "report"
        summary_path.write_text(summary, encoding="utf-8")
        assert cli.main(["report", "--summary", str(summary_path), "--out", str(out)]) == 0
        panels = sorted(out.iterdir())
        assert len(panels) == 40
        digest = hashlib.sha256()
        for panel in panels:
            digest.update(panel.name.encode("utf-8"))
            digest.update(panel.read_bytes())
        assert digest.hexdigest() == (
            "788ec518e2a5ade2caf13751f073da27cb2a53016d4a9e818dbc0603bbf2324b"
        ), _GOLDEN_KERNEL

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "redraw, summary_sha, raw_sha",
        [
            (
                False,
                "e588a71ddcbf62fbd9f0fcff2277e45e47a03d55f94518eeff50ab104a4ce522",
                "30256773ae6d6bdad25b59b285d21df62490bee7cf869bbb11030bdf27502fa1",
            ),
            (
                True,
                "6e52286d00a9426555550d9cd26db5bee836103ebc53410346add83b8bcfe5d9",
                "c23c04d6bb0dd9da6ae5f2718c4e1b85721c9d44535d4476b355484b4d063f3e",
            ),
        ],
        ids=["fixed", "redraw"],
    )
    def test_error_cells_summary_and_raw(self, tmp_path, redraw, summary_sha, raw_sha, workers):
        # Uniform noise cannot be drawn for this dataset, so every uniform cell
        # above level 0 is error:uniform-range beside the gaussian curves.
        result = run_sweep(
            SweepConfig(
                datasets=(_negative_source(tmp_path),),
                noise_kinds=(NoiseKind.GAUSSIAN, NoiseKind.UNIFORM),
                scalings=(ScalingKind.NONE, ScalingKind.STANDARDIZED),
                max_ratio=Fraction(2, 3),
                ratio_step=1,
                repeats=2,
                master_seed=1,
                redraw_noise_per_repeat=redraw,
                workers=workers,
            )
        )
        assert _sha256(summary_csv_text(result)) == summary_sha, _GOLDEN_KERNEL
        assert _sha256(raw_csv_text(result)) == raw_sha, _GOLDEN_KERNEL


def _criterion8_config(case, tmp_path, block_rows):
    """A sweep config whose serial bytes must equal its pooled bytes.

    n1003 is one distance block, n = 1003. blocked_file is n = 999 read from
    a file, split into eight 128-row blocks, which a serial sweep runs on two
    threads. Both wrote different silhouette bytes serially while OpenBLAS ran
    their distance products on two threads.
    """
    if case == "wide":
        return _wide_config()
    if case == "n1003":
        source = GeneratorSource(name="n1003", dims=256, clusters=17, per_cluster=59, seed=3)
        kind, scaling, step = NoiseKind.GAUSSIAN, ScalingKind.STANDARDIZED, 64
    else:
        ds = generate_dim_like(128, 27, 37, 10.0, seed=3)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        kind, scaling, step = NoiseKind.UNIFORM, ScalingKind.NONE, 32
        block_rows(ds.n_points, 128)
        assert len(distance.row_blocks(ds.n_points)) == 8
    return _toy_config(
        datasets=(source,),
        noise_kinds=(kind,),
        scalings=(scaling,),
        max_ratio=Fraction(1, 4),
        ratio_step=step,
        repeats=2,
    )


def _record_calls(monkeypatch, module, name):
    """Wrap module.name; the returned list gets the BLAS thread count at each call."""
    counts = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts.append(distance.blas_thread_count())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return counts


class TestWorkersAndBlas:
    @pytest.mark.parametrize("case", ["wide", "n1003", "blocked_file"])
    def test_wide_config_bytes_independent_of_workers(
        self, case, blas_threads, tmp_path, block_rows
    ):
        config = _criterion8_config(case, tmp_path, block_rows)
        serial = run_sweep(replace(config, workers=1))
        pooled = run_sweep(replace(config, workers=2))
        assert summary_csv_text(pooled) == summary_csv_text(serial)
        assert all(c.status == "ok" for c in serial.cells)

    def test_pooled_bytes_equal_serial_bytes_on_the_haswell_kernel(self, tmp_path):
        # OpenBLAS picks its kernel when it loads, so another kernel needs a
        # new process. Haswell (AVX2) rounds some silhouette values otherwise
        # than SkylakeX, on which the goldens were recorded; serial and
        # pooled runs must still agree byte for byte.
        outputs = {}
        for workers in (1, 2):
            out = _run_toy_config(tmp_path, workers, env={"OPENBLAS_CORETYPE": "Haswell"})
            core = json.loads((out / "manifest.json").read_text())["blas_core"]
            if core != "Haswell":
                pytest.skip(f"OPENBLAS_CORETYPE=Haswell ran the {core!r} kernel here")
            outputs[workers] = [(out / name).read_bytes() for name in ("summary.csv", "raw.csv")]
        assert outputs[1] == outputs[2]

    def test_result_records_workers_and_blas_threads(self, blas_threads):
        serial = run_sweep(_toy_config(workers=1))
        pooled = run_sweep(_toy_config(workers=2))
        assert (serial.workers, serial.blas_threads) == (1, blas_threads)
        assert pooled.workers == 2
        assert pooled.blas_threads == (None if blas_threads is None else 1)

    def test_pool_runs_cells_on_one_blas_thread(self, monkeypatch, controlled_blas):
        counts = _record_calls(monkeypatch, experiment, "fit")
        run_sweep(_toy_config(workers=2))
        assert set(counts) == {1}
        assert experiment.blas_thread_count() == controlled_blas

    def test_serial_sweep_pins_only_its_products(
        self, monkeypatch, controlled_blas, kernel_pins
    ):
        # Every product runs on one BLAS thread inside the kernel's pin, at
        # depth 1 (no caller holds a pin of its own), and the count is
        # OpenBLAS's own between products and after the sweep.
        fit_counts = _record_calls(monkeypatch, experiment, "fit")
        metric_counts = _record_calls(monkeypatch, experiment, "evaluate_clustering")
        run_sweep(_toy_config(workers=1))
        assert kernel_pins.products
        assert {(count, depth) for _, count, depth in kernel_pins.products} == {(1, 1)}
        assert set(fit_counts) == set(metric_counts) == {controlled_blas}
        assert experiment.blas_thread_count() == controlled_blas

    def test_serial_sweep_fits_a_matrix_of_several_blocks_on_one_blas_thread(
        self, monkeypatch, controlled_blas, block_rows, kernel_pins
    ):
        # Every k-means product of such a matrix runs inside the kernel's pin
        # at depth 1, so the fits hold no pin of their own, and silhouette
        # reads OpenBLAS's own count to spread its blocks over.
        block_rows(TOY.clusters * TOY.per_cluster, 8)
        silhouette_counts = _record_calls(monkeypatch, metrics_module, "for_each_row_block")
        result = run_sweep(_toy_config(workers=1))
        assert all(c.status == "ok" for c in result.cells)
        kmeans_products = [
            (count, depth)
            for caller, count, depth in kernel_pins.products
            if caller == "cluster_sense.kmeans"
        ]
        assert kmeans_products and set(kmeans_products) == {(1, 1)}
        assert {count for _, count, _ in kernel_pins.products} == {1}
        assert silhouette_counts and set(silhouette_counts) == {controlled_blas}
        assert experiment.blas_thread_count() == controlled_blas
        assert result.blas_threads == controlled_blas

    def test_overlapping_pins_restore_the_first_count(self, controlled_blas):
        outer = distance._single_blas_thread()
        inner = distance._single_blas_thread()
        assert outer.__enter__() == 1
        assert inner.__enter__() == 1
        outer.__exit__(None, None, None)
        assert experiment.blas_thread_count() == 1  # inner still holds the pin
        inner.__exit__(None, None, None)
        assert experiment.blas_thread_count() == controlled_blas

    def test_concurrent_pins_never_lose_the_count(self, controlled_blas):
        seen = []

        def pin_repeatedly():
            for _ in range(200):
                with distance._single_blas_thread():
                    seen.append(experiment.blas_thread_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_repeatedly) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1200
        assert experiment.blas_thread_count() == controlled_blas

    def test_uncontrollable_blas_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(distance, "_openblas_thread_controls", lambda: None)
        result = run_sweep(_toy_config(workers=2))
        assert result.blas_threads is None
        assert all(c.status == "ok" for c in result.cells)


class TestErrorHandling:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_error_propagates(self, monkeypatch, blas_threads, workers):

        def broken_fit(*args, **kwargs):
            raise TypeError("bug in the clusterer")

        monkeypatch.setattr(experiment, "fit", broken_fit)
        with pytest.raises(TypeError, match="bug in the clusterer"):
            run_sweep(_toy_config(workers=workers))
        assert experiment.blas_thread_count() == blas_threads

    def test_value_error_degrades_the_cell(self, monkeypatch):
        def refusing_fit(*args, **kwargs):
            raise ValueError("data condition")

        monkeypatch.setattr(experiment, "fit", refusing_fit)
        result = run_sweep(_toy_config(workers=2))
        assert {c.status for c in result.cells} == {"error:value-error"}

    def test_non_finite_metric_degrades_only_that_metric(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "davies_bouldin", lambda *args: math.inf)
        config = _toy_config()
        result = run_sweep(config)
        for cell in result.cells:
            if cell.metric == "davies_bouldin":
                assert cell.status == "error:non-finite-metric"
                assert math.isnan(cell.mean) and math.isnan(cell.std)
                assert cell.values == (math.inf,) * config.repeats
            else:
                assert cell.status == "ok"
        raw = _csv_rows(raw_csv_text(result))
        assert len(raw) == len(result.cells) * config.repeats
        written = [row["value"] for row in raw if row["metric"] == "davies_bouldin"]
        assert written == ["inf"] * (len(raw) // len(METRIC_NAMES))

    # The cell (gaussian, none, level 2) of the toy config; its repeats share
    # one matrix, fitted in repeat order before any metric is computed.
    CELL = ("gaussian", "none", 2)

    def _patch_second_repeat(self, monkeypatch, config, outcome):
        """Pass the fit of repeat 1 of CELL through `outcome`, others unchanged."""
        target = cell_kmeans_seed(
            config.master_seed, 0, NoiseKind.GAUSSIAN, ScalingKind.NONE, 2, 1
        )
        original = experiment.fit

        def patched_fit(matrix, kmeans_config, **kwargs):
            result = original(matrix, kmeans_config, **kwargs)
            return outcome(result) if kmeans_config.seed == target else result

        monkeypatch.setattr(experiment, "fit", patched_fit)

    def _assert_only_cell_degraded(self, result, config):
        def key(row):
            return (row.noise, row.scaling, row.level)

        degraded = [c for c in result.cells if key(c) == self.CELL]
        assert len(degraded) == 5
        assert {c.status for c in degraded} == {"error:value-error"}
        assert all(c.status == "ok" for c in result.cells if key(c) != self.CELL)
        raw = _raw_values(result)
        assert not [k for k in raw if k[1:4] == self.CELL]
        assert len(raw) == (len(result.cells) - 5) * config.repeats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_value_error_from_a_later_repeat_degrades_the_whole_cell(self, monkeypatch, workers):
        config = _toy_config(workers=workers)

        def refuse(result):
            raise ValueError("data condition")

        self._patch_second_repeat(monkeypatch, config, refuse)
        self._assert_only_cell_degraded(run_sweep(config), config)

    def test_collapsed_clustering_degrades_the_whole_cell(self, monkeypatch):
        config = _toy_config()

        def collapse(result):
            return replace(result, assignments=np.zeros_like(result.assignments))

        self._patch_second_repeat(monkeypatch, config, collapse)
        self._assert_only_cell_degraded(run_sweep(config), config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_error_from_a_later_repeat_propagates(
        self, monkeypatch, blas_threads, workers
    ):
        config = _toy_config(workers=workers)

        def bug(result):
            raise TypeError("bug in the clusterer")

        self._patch_second_repeat(monkeypatch, config, bug)
        with pytest.raises(TypeError, match="bug in the clusterer"):
            run_sweep(config)
        assert experiment.blas_thread_count() == blas_threads

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_fit_error_on_a_matrix_of_several_blocks_undoes_the_pin(
        self, monkeypatch, blas_threads, block_rows, kernel_pins, error
    ):
        # The first k-means product of one fit raises inside the kernel's
        # pin: a bug propagates, a data condition degrades the cell, and
        # either way the count and the pin depth are as they were.
        block_rows(TOY.clusters * TOY.per_cluster, 12)
        config = _toy_config(workers=1)
        target = cell_kmeans_seed(
            config.master_seed, 0, NoiseKind.GAUSSIAN, ScalingKind.NONE, 2, 1
        )
        fitting = []
        original = experiment.fit

        def tracking_fit(matrix, kmeans_config, **kwargs):
            fitting.append(kmeans_config.seed)
            try:
                return original(matrix, kmeans_config, **kwargs)
            finally:
                fitting.pop()

        depths = []

        def fail(caller):
            if caller == "cluster_sense.kmeans" and fitting == [target]:
                depths.append(distance._blas_pin_depth)
                raise error("raised inside a pinned k-means product")

        monkeypatch.setattr(experiment, "fit", tracking_fit)
        kernel_pins.hook = fail
        silhouette_counts = _record_calls(monkeypatch, metrics_module, "for_each_row_block")
        if error is TypeError:
            with pytest.raises(TypeError, match="pinned k-means product"):
                run_sweep(config)
        else:
            self._assert_only_cell_degraded(run_sweep(config), config)
        assert depths == [0 if blas_threads is None else 1]
        kmeans_counts = {
            count for caller, count, _ in kernel_pins.products if caller == "cluster_sense.kmeans"
        }
        assert kmeans_counts == {None if blas_threads is None else 1}
        assert silhouette_counts and set(silhouette_counts) == {blas_threads}
        assert experiment.blas_thread_count() == blas_threads
        assert distance._blas_pin_depth == 0

    def test_programming_error_in_a_distance_block_propagates(
        self, monkeypatch, blas_threads, block_rows
    ):
        # Eight blocks per matrix, run on two threads: the third block raises
        # while others may be running, and the pin is still undone.
        n = TOY.clusters * TOY.per_cluster
        block_rows(n, 8)
        assert len(distance.row_blocks(n)) == 8
        original = metrics_module.distance_rows
        calls = []

        def failing_rows(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise TypeError("bug in a distance block")
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "distance_rows", failing_rows)
        with pytest.raises(TypeError, match="bug in a distance block"):
            run_sweep(_toy_config(workers=1))
        assert experiment.blas_thread_count() == blas_threads
        assert distance._blas_pin_depth == 0

    def test_programming_error_in_noise_draw_propagates(self, monkeypatch):
        def broken_append(*args, **kwargs):
            raise TypeError("bug in the noise generator")

        monkeypatch.setattr(experiment, "append_noise", broken_append)
        with pytest.raises(TypeError, match="bug in the noise generator"):
            run_sweep(_toy_config())


def _load_layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLayerTrace:
    """The benchmark's layer tracer still finds every layer the sweep runs through."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_sweep_analyses_and_restores(self, workers):
        layertrace = _load_layertrace()
        config = _toy_config(workers=workers)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            result = cli.run_sweep(config)
        finally:
            left = tracer.uninstall()
        assert left == []
        metrics = layertrace.analyse(tracer.spans)
        assert all(math.isfinite(value) for value in metrics.values())
        cells = len(result.cells) // len(METRIC_NAMES)
        assert metrics["experiment.cells"] == cells
        assert metrics["kmeans.fit_calls"] == cells * config.repeats
        # Every toy matrix fits one distance block: the sweep builds it once
        # per scaled matrix and every silhouette reads it.
        assert metrics["scale.calls"] > 0
        assert metrics["distance.matrices_built"] == metrics["scale.calls"]
        assert metrics["metrics.silhouette_reuse_frac"] == 1.0

    def test_matrices_of_several_blocks_trace_no_built_matrix(self, block_rows):
        layertrace = _load_layertrace()
        n = TOY.clusters * TOY.per_cluster
        block_rows(n, 12)
        assert len(distance.row_blocks(n)) >= 2
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            cli.run_sweep(_toy_config(workers=1))
        finally:
            left = tracer.uninstall()
        assert left == []
        metrics = layertrace.analyse(tracer.spans)
        assert metrics["distance.matrices_built"] == 0
        assert metrics["distance.matrix_gb"] == 0.0
        assert metrics["metrics.silhouette_reuse_frac"] == 0.0
