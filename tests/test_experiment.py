"""Sweep orchestration tests: determinism, identities, tipping summaries."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
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
from cluster_sense.perturb import InvalidNoiseRange, NoiseKind, NoiseSpec, append_noise
from cluster_sense.scale import ScalingKind, apply_scaling
from cluster_sense.dataset import compute_stats

import oracles

TOY = GeneratorSource(name="toy", dims=8, clusters=4, per_cluster=16, separation=10.0, seed=3)
# n = 512, d = 64..72, k = 16: wide enough that OpenBLAS runs the Lloyd and
# cell-matrix products multi-threaded when it is allowed to.
WIDE = GeneratorSource(name="wide", dims=64, per_cluster=32, seed=3)
# Two 48-point, 2-feature datasets with overlapping clusters, so k-means
# reaches different partitions from different seeds.
ORACLE_SOURCES = (
    GeneratorSource(name="three", dims=2, clusters=3, per_cluster=16, separation=2.0, seed=1),
    GeneratorSource(name="four", dims=2, clusters=4, per_cluster=12, separation=2.0, seed=2),
)


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
    ds = LabeledDataset(points=points, labels=np.repeat([0, 1], 12))
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

    def test_values_become_members_and_members_pass(self):
        config = _toy_config(noise_kinds=("gaussian", NoiseKind.UNIFORM), scalings=["none"])
        assert config.noise_kinds == (NoiseKind.GAUSSIAN, NoiseKind.UNIFORM)
        assert config.scalings == (ScalingKind.NONE,)
        assert config == _toy_config(scalings=(ScalingKind.NONE,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_kinds", "blue"),
            ("noise_kinds", "Gaussian"),
            ("noise_kinds", ScalingKind.NONE),
            ("scalings", "minmax"),
            ("scalings", NoiseKind.UNIFORM),
            ("scalings", 0),
        ],
    )
    def test_other_entries_are_named(self, field, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            _toy_config(**{field: (value,)})

    @pytest.mark.parametrize("value", ["x", None, {"name": "toy", "dims": 8}, NoiseKind.GAUSSIAN])
    def test_other_dataset_entries_are_named(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            SweepConfig(datasets=(TOY, value))

    def test_defaults(self):
        config = SweepConfig(datasets=(TOY,))
        assert config.max_ratio == Fraction(3)
        assert config.ratio_step == 1
        assert config.repeats == 50
        assert config.redraw_noise_per_repeat is False
        assert config.workers == 1


class TestSeedScheme:
    def test_codes_give_distinct_seeds(self):
        # Above level 0, each (noise kind, scaling) pair keys its own k-means
        # seeds, and each noise kind its own noise sequence.
        for level in (1, 5):
            seeds = {
                cell_kmeans_seed(11, 0, kind, scaling, level, 0)
                for kind in NoiseKind
                for scaling in ScalingKind
            }
            assert len(seeds) == len(NoiseKind) * len(ScalingKind)
        assert len({noise_sequence_seed(11, 0, kind) for kind in NoiseKind}) == len(NoiseKind)


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
                scores = evaluate_clustering(scaled, fitted.assignments[None], base.labels)
                for metric, (value,) in scores.items():
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

    def test_augmented_cells_equal_manual_pipeline(self, monkeypatch):
        # A fixed-noise cell reads its matrix as a column prefix of its
        # curve's matrix. At level 0 and the widest level, for both noise
        # kinds and every scaling, the matrix it fits and every per-repeat
        # value must have the bits of the contiguous pipeline: np.hstack,
        # apply_scaling, fit and evaluate_clustering. A product or reduction
        # that rounds a strided prefix apart from a contiguous copy fails
        # here.
        fitted_on = {}
        original_fit = experiment.fit

        def recording(matrix, kmeans_config, **kwargs):
            fitted_on[kmeans_config.seed] = matrix.tobytes()
            return original_fit(matrix, kmeans_config, **kwargs)

        monkeypatch.setattr(experiment, "fit", recording)
        config = _toy_config(scalings=tuple(ScalingKind))
        result = run_sweep(config)
        base = TOY.load()
        stats = compute_stats(base)
        levels = sweep_levels(base.n_features, config.max_ratio, config.ratio_step)
        raw = _raw_values(result)
        checked = 0
        for kind in config.noise_kinds:
            sequence = noise_sequence_seed(config.master_seed, 0, kind)
            spec = NoiseSpec(kind, stats.mu, stats.sigma, seed=sequence)
            for level in (0, levels[-1]):
                matrix = np.hstack([base.points, append_noise(base, spec, level)])
                for scaling in config.scalings:
                    scaled = apply_scaling(matrix, scaling)
                    assert scaled.flags.c_contiguous
                    for repeat in range(config.repeats):
                        seed = cell_kmeans_seed(config.master_seed, 0, kind, scaling, level, repeat)
                        assert fitted_on[seed] == scaled.tobytes()
                        fitted = fit(scaled, KMeansConfig(k=base.n_clusters, seed=seed))
                        scores = evaluate_clustering(scaled, fitted.assignments[None], base.labels)
                        for metric, (value,) in scores.items():
                            key = ("toy", kind.value, scaling.value, level, metric, repeat)
                            assert raw[key] == value, key
                            checked += 1
        assert levels[-1] == 4
        assert checked == 2 * 2 * 3 * config.repeats * len(METRIC_NAMES)

    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redraw"])
    def test_every_cell_equals_the_oracle(self, monkeypatch, redraw):
        # oracles.cell_values restates a cell from the definitions, seed
        # codes included, so a changed seed, noise draw, scaling, k-means++
        # pick or metric shows here. Labelings are center indices in pick
        # order, so even a seed that reaches the same partition shows.
        config = SweepConfig(
            datasets=ORACLE_SOURCES,
            max_ratio=Fraction(1),
            ratio_step=2,
            repeats=3,
            master_seed=13,
            redraw_noise_per_repeat=redraw,
        )
        seen = []
        evaluate = experiment.evaluate_clustering

        def recording(matrix, assignments, truth, distances=None):
            seen.extend((matrix.copy(), labeling.copy()) for labeling in assignments)
            return evaluate(matrix, assignments, truth, distances=distances)

        monkeypatch.setattr(experiment, "evaluate_clustering", recording)
        raw = _raw_values(run_sweep(config))
        expected = []
        for index, source in enumerate(config.datasets):
            base = source.load()
            for kind in config.noise_kinds:
                for scaling in config.scalings:
                    for level in sweep_levels(base.n_features, config.max_ratio, config.ratio_step):
                        cell = oracles.cell_values(
                            base.points,
                            base.labels,
                            master_seed=config.master_seed,
                            dataset_index=index,
                            kind=kind,
                            scaling=scaling,
                            level=level,
                            repeats=config.repeats,
                            redraw=redraw,
                        )
                        for repeat, values in enumerate(cell):
                            key = (base.name, kind.value, scaling.value, level)
                            expected.append((key, repeat, values))
        # 2 datasets x 2 noises x 3 scalings x levels 0 and 2 x 3 repeats.
        assert len(expected) == len(seen) == 72
        for (matrix, labeling), (key, repeat, values) in zip(seen, expected):
            assert np.array_equal(labeling, values["labeling"]), (key, repeat)
            np.testing.assert_allclose(matrix, values["matrix"], rtol=1e-12, atol=1e-12)
            for metric, value in values["values"].items():
                assert raw[(*key, metric, repeat)] == pytest.approx(value, rel=1e-9, abs=1e-12)

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

    def test_error_cells_keep_their_message_in_the_manifest(self, tmp_path):
        # Each uniform cell above level 0 fails on InvalidNoiseRange: its rows
        # carry the exception's text, and the manifest lists each such cell
        # once with it, while ok rows carry no message.
        source = _negative_source(tmp_path)
        base = source.load()
        stats = compute_stats(base)
        spec = NoiseSpec(NoiseKind.UNIFORM, stats.mu, stats.sigma, seed=0)
        with pytest.raises(InvalidNoiseRange) as raised:
            append_noise(base, spec, 1)
        config_text = (
            "noise = gaussian, uniform\nscaling = none\nmax_ratio = 2:3\nrepeats = 2\n"
            f"[dataset]\ndata = {source.data_path}\nlabels = {source.labels_path}\n"
        )
        (tmp_path / "sweep.cfg").write_text(config_text, encoding="utf-8")
        result = run_sweep(cli.parse_config(tmp_path / "sweep.cfg"))
        failed = [c for c in result.cells if c.status != "ok"]
        assert failed and all(c.noise == "uniform" and c.level > 0 for c in failed)
        assert {(c.status, c.message) for c in failed} == {
            ("error:uniform-range", str(raised.value))
        }
        assert {c.message for c in result.cells if c.status == "ok"} == {""}
        out = tmp_path / "out"
        command = ["run", "--config", str(tmp_path / "sweep.cfg"), "--out", str(out)]
        assert cli.main(command) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["degraded"] == [
            {
                "dataset": "d",
                "noise": "uniform",
                "scaling": "none",
                "level": level,
                "status": "error:uniform-range",
                "message": str(raised.value),
            }
            for level in (1, 2)
        ]
        assert manifest["degraded_cells"] == 2

    def test_a_curve_whose_noise_draw_fails_keeps_no_noise(self, tmp_path, monkeypatch):
        # The curve's fixed-noise draw raises, so its cells hold no curve and
        # no exception: each draws its own columns inside _run_cell, where a
        # level above 0 raises InvalidNoiseRange and level 0 draws none.
        seen = []
        original = experiment._run_cell

        def recording(cell, config):
            rows = original(cell, config)
            seen.append((cell.level > 0, cell.curve, rows[0].status))
            return rows

        monkeypatch.setattr(experiment, "_run_cell", recording)
        config = _toy_config(
            datasets=(_negative_source(tmp_path),),
            noise_kinds=(NoiseKind.UNIFORM,),
            max_ratio=Fraction(2, 3),
            ratio_step=1,
            workers=1,
        )
        run_sweep(config)
        assert seen and all(curve is None for _, curve, _ in seen)
        assert {(above, status) for above, _, status in seen} == {
            (False, "ok"),
            (True, "error:uniform-range"),
        }

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

    def test_row_block_budget_does_not_change_summary_bytes(self, tmp_path, tile_shape):
        # A file dataset with per-repeat noise: every silhouette runs once
        # per drawn matrix above level 0 and once for the shared level-0
        # matrix of each cell's repeats. In one block the sweep builds the
        # whole distance matrix and k-means++ squares its rows; in 40-row
        # strips (40, 40, 16) of 48-column tiles silhouette computes each
        # tile itself and k-means++ its own squared distances. So this also
        # compares the two D^2 sources of k-means++. n = 96 is a multiple of
        # 8, where tiles round like the whole matrix (see
        # cluster_sense.distance), so the labelings, and with them every
        # label metric and Davies-Bouldin, keep their bytes. Silhouette sums
        # each pair once from the tiles, in another order than the one-block
        # product, so its values move by rounding only.
        ds = generate_dim_like(4, 6, 16, 4.0, seed=5)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = _toy_config(
            datasets=(source,), max_ratio=Fraction(1), redraw_noise_per_repeat=True, repeats=2
        )
        one_block = run_sweep(config).cells
        tile_shape(ds.n_points, 40, 48)
        assert len(list(distance.tiles(ds.n_points))) == 5
        many_blocks = run_sweep(config).cells
        assert all(cell.status == "ok" for cell in one_block)
        assert len(many_blocks) == len(one_block)
        for one, many in zip(one_block, many_blocks):
            if one.metric != "silhouette":
                assert many == one
                continue
            assert replace(many, values=one.values, mean=one.mean, std=one.std) == one
            assert many.values == pytest.approx(one.values, rel=1e-12, abs=0.0)
            assert many.mean == pytest.approx(one.mean, rel=1e-12, abs=0.0)

    def test_fixed_noise_file_sweep_never_holds_an_n_by_n_matrix(self, tmp_path, tile_shape):
        # n = 512 in 64 x 128 tiles (8 strips). numpy reports its buffers to
        # tracemalloc, so one n x n float64 matrix alive anywhere in the sweep
        # (such as a per-cell distance cache) would put the peak above it.
        ds = generate_dim_like(4, 8, 64, 4.0, seed=6)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = _toy_config(datasets=(source,), max_ratio=Fraction(1, 2), repeats=2, workers=1)
        n = ds.n_points
        tile_shape(n, 64, 128)
        assert not distance.fits_one_block(n)
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
        # A redraw sweep stacks every matrix, level 0 included, once into a
        # new array and scales that array in place: every matrix comes back
        # from apply_scaling as the same object, which owns its data, and
        # every per-repeat noise draw is gone while it is fitted. A
        # fixed-noise cell reads its matrix as a column prefix of its curve's
        # read-only matrix: unscaled, that view is the matrix it fits, so it
        # owns none; scaled, apply_scaling returns one new array it owns.
        # Either way, while a cell's repeats are fitted no other matrix a
        # cell owns is alive, and no cell writes a curve.
        owned, draws, wide_fits, curves, running = [], [], [], {}, []
        original_run = experiment._run_cell
        original_append = experiment.append_noise
        original_scaling = experiment.apply_scaling
        original_fit = experiment.fit

        def tracked_run(cell, config):
            if cell.curve is not None:
                curves.setdefault(id(cell.curve), (cell.curve, cell.curve.tobytes()))
            running[:] = [cell]
            return original_run(cell, config)

        def tracked_append(*args, **kwargs):
            columns = original_append(*args, **kwargs)
            if kwargs.get("seed") is not None:
                draws.append(weakref.ref(columns))
            return columns

        def tracked_scaling(matrix, kind, **kwargs):
            scaled = original_scaling(matrix, kind, **kwargs)
            curve = running[0].curve
            if curve is None:
                assert scaled is matrix and matrix.flags.owndata
            elif kind is ScalingKind.NONE:
                assert scaled is matrix and not matrix.flags.writeable
                assert np.shares_memory(matrix, curve)
                return scaled
            else:
                assert scaled.flags.owndata and not np.shares_memory(scaled, curve)
            owned.append(weakref.ref(scaled))
            return scaled

        def checked_fit(matrix, kmeans_config, **kwargs):
            assert [ref for ref in draws if ref() is not None] == []
            alive = [ref() for ref in owned if ref() is not None]
            cell = running[0]
            if cell.curve is not None and cell.scaling is ScalingKind.NONE:
                assert alive == [] and not matrix.flags.writeable
                assert np.shares_memory(matrix, cell.curve)
            else:
                assert len(alive) == 1 and alive[0] is matrix
            wide_fits.append(matrix.shape[1] > TOY.dims)
            return original_fit(matrix, kmeans_config, **kwargs)

        monkeypatch.setattr(experiment, "_run_cell", tracked_run)
        monkeypatch.setattr(experiment, "append_noise", tracked_append)
        monkeypatch.setattr(experiment, "apply_scaling", tracked_scaling)
        monkeypatch.setattr(experiment, "fit", checked_fit)
        result = run_sweep(_toy_config(redraw_noise_per_repeat=redraw, workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert any(wide_fits) and not all(wide_fits)
        assert (len(draws) > 0) == redraw
        # One curve per noise kind, each read-only and unwritten by its cells.
        assert len(curves) == (0 if redraw else 2)
        for curve, before in curves.values():
            assert not curve.flags.writeable and curve.tobytes() == before

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
        calls = {"pairwise_distances": 0, "silhouette_matrix": 0, "tile": 0, "apply_scaling": 0}

        def counted(module, name, key=None):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(experiment, "pairwise_distances")
        counted(experiment, "apply_scaling")
        counted(metrics_module, "pairwise_distances", "silhouette_matrix")
        counted(metrics_module, "tile")
        return calls

    def test_single_block_matrix_is_built_once_per_scaled_matrix(self, monkeypatch):
        # The cell builds it, and silhouette reads it: it builds none of its
        # own and computes no tile.
        calls = self._count_distance_work(monkeypatch)
        result = run_sweep(_toy_config(redraw_noise_per_repeat=True, workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert calls["apply_scaling"] > 0
        assert calls["pairwise_distances"] == calls["apply_scaling"]
        assert calls["silhouette_matrix"] == calls["tile"] == 0

    def test_matrix_of_several_blocks_is_never_built(self, monkeypatch, tile_shape):
        calls = self._count_distance_work(monkeypatch)
        n = TOY.clusters * TOY.per_cluster
        tile_shape(n, 12, 24)
        tiles = len(list(distance.tiles(n)))
        assert tiles > 6
        result = run_sweep(_toy_config(workers=1))
        assert all(c.status == "ok" for c in result.cells)
        assert calls["pairwise_distances"] == calls["silhouette_matrix"] == 0
        assert calls["tile"] == calls["apply_scaling"] * tiles

    def test_provenance_echo(self):
        config = _toy_config()
        result = run_sweep(config)
        assert result.config == config
        assert result.workers == config.workers == 1


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
    return LabeledDataset(points=points, labels=labels)


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


# The sha256 of each golden output, keyed by the OpenBLAS kernel that ran
# every product (distance.blas_core_name()): kernels round some products
# differently. Recorded with numpy 2.4 on its bundled OpenBLAS 0.3.31, one
# process per kernel selected with OPENBLAS_CORETYPE. The SkylakeX (AVX-512)
# digests were recorded first, before BLAS pinning and shared row norms. The
# Sandybridge, Nehalem and Katmai kernels wrote the same bytes as each other.
_PRE_AVX2_GOLDENS = {
    "toy_summary": "b2a92845b29935cc53e9874f479494caff15f01132917f84740cc7db91366041",
    "toy_raw": "2f7cef68634693d014a2464e0c46513053e47caae5bb1c5866bc9f802d957156",
    "wide_summary": "cd2e6c83b8e1f4934f7e83b145f3614fec44c4f1d779ab4c5e0a60f08e5350d5",
    "wide_raw": "c1b12ccdf00583ee717212e27afc79d25ce0ebf521b705071ab817c8732e6558",
    "redraw_summary": "b8bd1d34451d06beaa3f4d1894a5b905389ff7ea51fd451538c66e9c5f35f744",
    "redraw_raw": "182eeccff9a271cb03ddbd49ec54fe84d6d76c5661d45201a9f0e55106608ee6",
    "redraw_report": "788ec518e2a5ade2caf13751f073da27cb2a53016d4a9e818dbc0603bbf2324b",
    "error_fixed_summary": "b59435f92a70d888546959008c2fc156850d9ff5da776d543ca76ffcabed826c",
    "error_fixed_raw": "d3354326b1941d2d13c370859fc6c1f978c0f35d676f66f0b3bb15bfa72713c3",
    "error_redraw_summary": "cebaae7311d2b1e4622d38baa51cf81b452fb95f49b4cbd0ef6c90c9493d3b82",
    "error_redraw_raw": "dfee79afd4c91e0d42914fac5234185333141719cf9ceb70848fa0ce0738fce3",
}
GOLDENS = {
    "SkylakeX": {
        "toy_summary": "6c445a72955c30638ae63e47eed1ae2cc7d5597f9f409ab610cb6f62e9fa5482",
        "toy_raw": "3103c482587dbc166a43f32655c19998fef36bbdc84b70c77748cc596a945bd6",
        "wide_summary": "a4dcea6fd9b3b0aebfaabc406d277afd7148ff7b2875ac0790bfde4085f9758f",
        "wide_raw": "94aeb4f36c95604f517b3c6d89c4973a283bdf5b5688262cb10d08408554a86f",
        "redraw_summary": "22955d5f594d1229c23c9e89fde99c977c1440fe8168d622296e1b1abb33b95e",
        "redraw_raw": "cd3a21baae0b21caa5c8374fb704a22ac6a6be587139bf88b2091de394f827ef",
        "redraw_report": "788ec518e2a5ade2caf13751f073da27cb2a53016d4a9e818dbc0603bbf2324b",
        "error_fixed_summary": "e588a71ddcbf62fbd9f0fcff2277e45e47a03d55f94518eeff50ab104a4ce522",
        "error_fixed_raw": "30256773ae6d6bdad25b59b285d21df62490bee7cf869bbb11030bdf27502fa1",
        "error_redraw_summary": "6e52286d00a9426555550d9cd26db5bee836103ebc53410346add83b8bcfe5d9",
        "error_redraw_raw": "c23c04d6bb0dd9da6ae5f2718c4e1b85721c9d44535d4476b355484b4d063f3e",
    },
    "Haswell": {
        "toy_summary": "366e6877a7b0781e4f809e5d52c9422c9666a90f9b0573d685958dc104f7424c",
        "toy_raw": "733d410f3e9fe6cdb51d6eb3234823f851349ef0628116adcbf9232d11a4b257",
        "wide_summary": "a4dcea6fd9b3b0aebfaabc406d277afd7148ff7b2875ac0790bfde4085f9758f",
        "wide_raw": "94aeb4f36c95604f517b3c6d89c4973a283bdf5b5688262cb10d08408554a86f",
        "redraw_summary": "39047ebb9a25df6ef65bda64aa33220c70e7bdeb94b4500942f49530fadb7618",
        "redraw_raw": "ca02e49018ac108034d97c02227c4a7956a75edf693503b44378f712f7a7663b",
        "redraw_report": "788ec518e2a5ade2caf13751f073da27cb2a53016d4a9e818dbc0603bbf2324b",
        "error_fixed_summary": "7a152311aea454e915c6e424c62c4ac4061003c70970ddf6da3ed141a97b7294",
        "error_fixed_raw": "691fe32d7b9937dfd3e7b19e9f7980f4aaca0f46474b6779e0c9dbbb588cb0a1",
        "error_redraw_summary": "fc9c0713af8d8ea969c494adfc95dc8f487c707753878388515ac195bbe0f9f7",
        "error_redraw_raw": "bf1de0151834fd2224189348be3b5f067415539fb35706287fbe65870894b9f5",
    },
    "Sandybridge": _PRE_AVX2_GOLDENS,
    "Nehalem": _PRE_AVX2_GOLDENS,
    "Katmai": _PRE_AVX2_GOLDENS,
}


def _assert_golden(name, digest):
    """Assert that `digest` is golden `name` of the kernel this process runs
    on. A kernel with no record fails, naming itself."""
    core = distance.blas_core_name()
    assert core in GOLDENS, f"no goldens recorded for this run's BLAS kernel {core!r}"
    assert digest == GOLDENS[core][name], f"{name} on the {core!r} kernel"


class TestGoldenBytes:
    """Output bytes pinned per BLAS kernel (GOLDENS).

    In this process they check the kernel OpenBLAS chose for this CPU;
    test_golden_bytes_on_every_recorded_kernel runs this class once per
    recorded kernel.
    """

    def test_toy_summary_and_raw(self):
        result = run_sweep(_toy_config())
        _assert_golden("toy_summary", _sha256(summary_csv_text(result)))
        _assert_golden("toy_raw", _sha256(raw_csv_text(result)))

    def test_run_writes_the_toy_summary_and_raw(self, tmp_path):
        # `run` writes raw.csv beside summary.csv with no flag.
        out = _run_toy_config(tmp_path, workers=1)
        _assert_golden("toy_summary", _sha256((out / "summary.csv").read_text()))
        _assert_golden("toy_raw", _sha256((out / "raw.csv").read_text()))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_summary_and_raw(self, workers):
        result = run_sweep(_wide_config(workers=workers))
        _assert_golden("wide_summary", _sha256(summary_csv_text(result)))
        _assert_golden("wide_raw", _sha256(raw_csv_text(result)))

    def test_toy_redraw_summary_raw_and_report(self, tmp_path):
        # Per-repeat noise draws a fresh matrix for each repeat; the report's
        # SVG panels are digested name by name in sorted order.
        result = run_sweep(_toy_config(redraw_noise_per_repeat=True))
        summary = summary_csv_text(result)
        _assert_golden("redraw_summary", _sha256(summary))
        _assert_golden("redraw_raw", _sha256(raw_csv_text(result)))
        summary_path, out = tmp_path / "summary.csv", tmp_path / "report"
        summary_path.write_text(summary, encoding="utf-8")
        assert cli.main(["report", "--summary", str(summary_path), "--out", str(out)]) == 0
        panels = sorted(out.iterdir())
        assert len(panels) == 40
        digest = hashlib.sha256()
        for panel in panels:
            digest.update(panel.name.encode("utf-8"))
            digest.update(panel.read_bytes())
        _assert_golden("redraw_report", digest.hexdigest())

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redraw"])
    def test_error_cells_summary_and_raw(self, tmp_path, redraw, workers):
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
        case = "error_redraw" if redraw else "error_fixed"
        _assert_golden(f"{case}_summary", _sha256(summary_csv_text(result)))
        _assert_golden(f"{case}_raw", _sha256(raw_csv_text(result)))


def test_a_kernel_with_no_record_fails_naming_it(monkeypatch):
    monkeypatch.setattr(distance, "blas_core_name", lambda: "Prescott")
    with pytest.raises(AssertionError, match="no goldens recorded .* 'Prescott'"):
        _assert_golden("toy_summary", GOLDENS["SkylakeX"]["toy_summary"])


@pytest.mark.parametrize("kernel", sorted(GOLDENS))
def test_golden_bytes_on_every_recorded_kernel(kernel):
    # OpenBLAS picks its kernel when it loads, so each kernel needs a new
    # process. A CPU that cannot run the kernel asked for gets another one.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    probe = "from cluster_sense import distance; print(distance.blas_core_name())"
    core = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
    ).stdout.strip()
    if core != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the {core!r} kernel here")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    done = subprocess.run(
        [*command, f"{Path(__file__).resolve()}::TestGoldenBytes"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:]


def _criterion8_config(case, tmp_path, tile_shape):
    """A sweep config whose serial bytes must equal its pooled bytes.

    n1003 is one distance block, n = 1003. blocked_file is n = 999 read from
    a file, read in eight 128-row strips of 256-column tiles, which a serial
    sweep runs on two threads. Both wrote different silhouette bytes serially while OpenBLAS ran
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
        tile_shape(ds.n_points, 128, 256)
        assert len({rows.start for rows, _ in distance.tiles(ds.n_points)}) == 8
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
        self, case, blas_threads, tmp_path, tile_shape
    ):
        config = _criterion8_config(case, tmp_path, tile_shape)
        serial = run_sweep(replace(config, workers=1))
        pooled = run_sweep(replace(config, workers=2))
        assert summary_csv_text(pooled) == summary_csv_text(serial)
        assert all(c.status == "ok" for c in serial.cells)

    def test_pooled_bytes_equal_serial_bytes_on_the_haswell_kernel(self, tmp_path):
        # OpenBLAS picks its kernel when it loads, so another kernel needs a
        # new process. Haswell (AVX2) rounds some silhouette values otherwise
        # than SkylakeX; serial and pooled runs must still agree byte for byte.
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
        self, monkeypatch, controlled_blas, tile_shape, kernel_pins
    ):
        # Every k-means product of such a matrix runs inside the kernel's pin
        # at depth 1, so the fits hold no pin of their own, and silhouette
        # reads OpenBLAS's own count to spread its tiles over.
        tile_shape(TOY.clusters * TOY.per_cluster, 8, 16)
        silhouette_counts = _record_calls(monkeypatch, metrics_module, "for_each_tile")
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
        assert {c.message for c in result.cells} == {"data condition"}

    def test_non_finite_metric_degrades_only_that_metric(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "davies_bouldin", lambda *args: math.inf)
        config = _toy_config()
        result = run_sweep(config)
        for cell in result.cells:
            if cell.metric == "davies_bouldin":
                assert cell.status == "error:non-finite-metric"
                assert cell.message == experiment.NON_FINITE_MESSAGE
                assert math.isnan(cell.mean) and math.isnan(cell.std)
                assert cell.values == (math.inf,) * config.repeats
            else:
                assert (cell.status, cell.message) == ("ok", "")
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
        self, monkeypatch, blas_threads, tile_shape, kernel_pins, error
    ):
        # The first k-means product of one fit raises inside the kernel's
        # pin: a bug propagates, a data condition degrades the cell, and
        # either way the count and the pin depth are as they were.
        tile_shape(TOY.clusters * TOY.per_cluster, 12, 24)
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
        silhouette_counts = _record_calls(monkeypatch, metrics_module, "for_each_tile")
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
        self, monkeypatch, blas_threads, tile_shape
    ):
        # Eight strips of 16-column tiles per matrix, run on two threads: the
        # third tile raises while others may be running, and the pin is
        # still undone.
        n = TOY.clusters * TOY.per_cluster
        tile_shape(n, 8, 16)
        assert len({rows.start for rows, _ in distance.tiles(n)}) == 8
        original = metrics_module.tile
        calls = []

        def failing_tile(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise TypeError("bug in a distance block")
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "tile", failing_tile)
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

    def test_benchmark_selftest_passes(self):
        # The benchmark's own check runs both workloads, shrunk, traced and
        # untraced: a traced name, a declared metric or the report path that
        # this package no longer serves fails it.
        selftest = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
        done = subprocess.run(
            [sys.executable, str(selftest)], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stdout + done.stderr

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

    def test_matrices_of_several_blocks_trace_no_built_matrix(self, tile_shape):
        layertrace = _load_layertrace()
        n = TOY.clusters * TOY.per_cluster
        tile_shape(n, 12, 24)
        assert not distance.fits_one_block(n)
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
