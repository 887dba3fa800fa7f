"""Sweep orchestration tests: determinism, identities, tipping summaries."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cluster_sense import distance
from cluster_sense.cli import summary_csv_text
from cluster_sense.dataset import generate_dim_like, save_dataset
from cluster_sense.experiment import (
    FileSource,
    GeneratorSource,
    RawValue,
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
from cluster_sense.metrics import evaluate_clustering
from cluster_sense.perturb import NoiseKind, NoiseSpec, append_noise
from cluster_sense.scale import ScalingKind, apply_scaling
from cluster_sense.dataset import compute_stats

TOY = GeneratorSource(name="toy", dims=8, clusters=4, per_cluster=16, separation=10.0, seed=3)


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
        with pytest.raises(ValueError, match="max_ratio"):
            _toy_config(max_ratio=Fraction(0))
        with pytest.raises(ValueError, match="ratio_step"):
            _toy_config(ratio_step=0)
        with pytest.raises(ValueError, match="dataset"):
            _toy_config(datasets=())

    def test_defaults(self):
        config = SweepConfig(datasets=(TOY,))
        assert config.max_ratio == Fraction(3)
        assert config.ratio_step == 1
        assert config.repeats == 50
        assert config.redraw_noise_per_repeat is False


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

    def test_env_variable_controls_workers(self, monkeypatch):
        monkeypatch.delenv("CLUSTER_SENSE_THREADS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("CLUSTER_SENSE_THREADS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("CLUSTER_SENSE_THREADS", "0")
        assert resolve_workers(None) >= 1
        assert resolve_workers(2) == 2
        monkeypatch.setenv("CLUSTER_SENSE_THREADS", "soup")
        with pytest.raises(ValueError, match="CLUSTER_SENSE_THREADS"):
            resolve_workers(None)

    def test_baseline_cells_equal_manual_pipeline(self):
        config = _toy_config(retain_raw=True)
        result = run_sweep(config)
        base = TOY.load()
        raw = {
            (v.noise, v.scaling, v.level, v.metric, v.repeat): v.value for v in result.raw
        }
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
                        assert raw[(kind.value, scaling.value, 0, metric, repeat)] == value

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
        config = _toy_config(retain_raw=True, noise_kinds=(NoiseKind.GAUSSIAN,))
        result = run_sweep(config)
        base = TOY.load()
        spec = NoiseSpec.from_stats(
            NoiseKind.GAUSSIAN,
            compute_stats(base),
            seed=noise_sequence_seed(config.master_seed, 0, NoiseKind.GAUSSIAN),
        )
        level = 4
        matrix = append_noise(base, spec, level).matrix
        scaled = apply_scaling(matrix, ScalingKind.NONE)
        raw = {
            (v.scaling, v.level, v.metric, v.repeat): v.value
            for v in result.raw
            if v.noise == "gaussian"
        }
        for repeat in range(config.repeats):
            seed = cell_kmeans_seed(
                config.master_seed, 0, NoiseKind.GAUSSIAN, ScalingKind.NONE, level, repeat
            )
            fitted = fit(scaled, KMeansConfig(k=base.n_clusters, seed=seed))
            report = evaluate_clustering(scaled, fitted.assignments, base.labels)
            for metric, value in report.as_dict().items():
                assert raw[("none", level, metric, repeat)] == value

    def test_std_is_population_std_of_raw_values(self):
        config = _toy_config(retain_raw=True)
        result = run_sweep(config)
        values = {}
        for v in result.raw:
            values.setdefault((v.noise, v.scaling, v.level, v.metric), []).append(v.value)
        for cell in result.cells:
            key = (cell.noise, cell.scaling, cell.level, cell.metric)
            arr = np.array(values[key])
            assert len(arr) == cell.repeats
            assert cell.mean == pytest.approx(arr.mean(), abs=1e-12)
            assert cell.std == pytest.approx(arr.std(), abs=1e-12)
            assert cell.std >= 0.0

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
        rng = np.random.default_rng(0)
        points = rng.normal(size=(24, 3)) - 10.0  # mu + 2*sigma < 0
        points[:12] += 2.0
        labels = np.repeat([0, 1], 12)
        from cluster_sense.dataset import LabeledDataset

        ds = LabeledDataset(points=points, labels=labels, n_clusters=2)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="negative", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = SweepConfig(
            datasets=(source,),
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
        fixed = run_sweep(_toy_config(retain_raw=True))
        redrawn = run_sweep(_toy_config(retain_raw=True, redraw_noise_per_repeat=True))
        redrawn_again = run_sweep(_toy_config(retain_raw=True, redraw_noise_per_repeat=True))
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

    def test_row_block_budget_does_not_change_summary_bytes(self, tmp_path, monkeypatch):
        # A file dataset with per-repeat noise: every augmented silhouette runs
        # the blocked kernel, and the level-0 cells the cached matrix. n = 96
        # is a multiple of 8, where blocks round like the whole matrix (see
        # cluster_sense.distance), so forcing 40-row blocks (40, 40, 16) must
        # leave the summary bytes unchanged.
        ds = generate_dim_like(4, 6, 16, 4.0, seed=5)
        save_dataset(ds, tmp_path / "d.txt", tmp_path / "l.txt")
        source = FileSource(
            name="file", data_path=str(tmp_path / "d.txt"), labels_path=str(tmp_path / "l.txt")
        )
        config = _toy_config(
            datasets=(source,), max_ratio=Fraction(1), redraw_noise_per_repeat=True, repeats=2
        )
        one_block = summary_csv_text(run_sweep(config))
        monkeypatch.setattr(distance, "BLOCK_BYTES", 40 * 8 * ds.n_points)
        assert len(distance.row_blocks(ds.n_points)) == 3
        many_blocks = summary_csv_text(run_sweep(config))
        assert many_blocks == one_block
        assert "error" not in one_block

    def test_provenance_echo(self):
        config = _toy_config()
        result = run_sweep(config)
        assert result.config == config
        assert result.version
        assert result.raw is None


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
        config = _toy_config(retain_raw=True)
        result = run_sweep(config)
        assert isinstance(result.raw, tuple)
        assert all(isinstance(v, RawValue) for v in result.raw)
        assert len(result.raw) == len(result.cells) * config.repeats
