"""Noise-ratio sweep: append, scale, cluster repeatedly, aggregate statistics.

Every cell of a sweep (one dataset, noise kind, scaling and augmentation
level) is reproducible in isolation: its k-means seeds are derived from
(master_seed, dataset index, noise code, scaling code, level, repeat index)
and its noise columns from a per-(dataset, noise) sequence seed, so results
are independent of scheduling and of which other cells run.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .dataset import LabeledDataset, compute_stats, generate_dim_like, load_dataset
from .distance import (
    blas_thread_count,
    fits_one_block,
    map_on_one_blas_thread,
    pairwise_distances,
)
from .kmeans import KMeansConfig, default_tolerance, fit
from .metrics import METRIC_NAMES, evaluate_clustering
from .perturb import InvalidNoiseRange, NoiseKind, NoiseSpec, append_noise
from .scale import ScalingKind, apply_scaling
from .seeding import derive_seed

_NOISE_SEQUENCE_STREAM = 0x0153

# The code of each noise kind and scaling in seed derivation. Every seed of a
# sweep is keyed by these, so changing one changes the sweep's output.
_SEED_CODES = {
    NoiseKind.GAUSSIAN: 0,
    NoiseKind.UNIFORM: 1,
    ScalingKind.NONE: 0,
    ScalingKind.CENTERED: 1,
    ScalingKind.STANDARDIZED: 2,
}

# Stands in for the noise-kind code in level-0 seed derivation: no noise is
# drawn at the baseline, so the kind must not influence the results there.
_BASELINE_KIND_CODE = 0x0B5E


@dataclass(frozen=True)
class GeneratorSource:
    """Synthetic Dim-style dataset described inline in the sweep config."""

    name: str
    dims: int
    clusters: int = 16
    per_cluster: int = 64
    separation: float = 10.0
    seed: int = 0

    def load(self) -> LabeledDataset:
        return generate_dim_like(
            self.dims, self.clusters, self.per_cluster, self.separation, self.seed, name=self.name
        )


@dataclass(frozen=True)
class FileSource:
    """Dataset read from a data/labels text file pair."""

    name: str
    data_path: str
    labels_path: str

    def load(self) -> LabeledDataset:
        return load_dataset(self.data_path, self.labels_path, name=self.name)


DatasetSource = Union[GeneratorSource, FileSource]


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep run."""

    datasets: tuple[DatasetSource, ...]
    noise_kinds: tuple[NoiseKind, ...] = (NoiseKind.GAUSSIAN, NoiseKind.UNIFORM)
    scalings: tuple[ScalingKind, ...] = (
        ScalingKind.NONE,
        ScalingKind.CENTERED,
        ScalingKind.STANDARDIZED,
    )
    max_ratio: Fraction = Fraction(3)
    ratio_step: int = 1
    repeats: int = 50
    master_seed: int = 0
    redraw_noise_per_repeat: bool = False
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        # A value becomes its member; anything else raises a ValueError naming it.
        object.__setattr__(self, "noise_kinds", tuple(map(NoiseKind, self.noise_kinds)))
        object.__setattr__(self, "scalings", tuple(map(ScalingKind, self.scalings)))
        object.__setattr__(self, "max_ratio", Fraction(self.max_ratio))
        if not self.datasets:
            raise ValueError("at least one dataset source is required")
        for source in self.datasets:
            if not isinstance(source, (GeneratorSource, FileSource)):
                raise ValueError(f"{source!r} is not a GeneratorSource or FileSource")
        for what, values in (
            ("dataset name", [source.name for source in self.datasets]),
            ("noise kind", [kind.value for kind in self.noise_kinds]),
            ("scaling", [scaling.value for scaling in self.scalings]),
        ):
            for value in values:
                if values.count(value) > 1:
                    raise ValueError(f"{what} {value!r} is used more than once")
        if not self.noise_kinds:
            raise ValueError("at least one noise kind is required")
        if not self.scalings:
            raise ValueError("at least one scaling is required")
        if self.max_ratio <= 0:
            raise ValueError(f"max_ratio must be positive, got {self.max_ratio}")
        if self.ratio_step < 1:
            raise ValueError(f"ratio_step must be >= 1, got {self.ratio_step}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")


@dataclass(frozen=True)
class SweepCell:
    """One metric in one sweep cell: its per-repeat values, in repeat order,
    and their mean and population std. `values` is empty when the cell's
    repeats did not finish. `message` says why a row is not "ok": the text
    of the exception that failed the cell, or NON_FINITE_MESSAGE; it is
    empty for an "ok" row."""

    dataset: str
    noise: str
    scaling: str
    level: int
    ratio: float
    metric: str
    mean: float
    std: float
    repeats: int
    status: str
    values: tuple[float, ...]
    message: str = ""


# The message of a row whose status is error:non-finite-metric.
NON_FINITE_MESSAGE = "a repeat's value of this metric is not finite"


@dataclass(frozen=True)
class SweepResult:
    """All cells of a sweep plus the provenance needed to rerun it."""

    cells: tuple[SweepCell, ...]
    config: SweepConfig
    # Resolved worker count and the number of threads silhouette's distance
    # blocks could be spread over (None when the BLAS thread count cannot be
    # read or set); every BLAS product itself runs on one BLAS thread.
    workers: int = 1
    blas_threads: Optional[int] = None


def sweep_levels(n_features: int, max_ratio: Fraction, ratio_step: int) -> range:
    """Augmentation levels 0..ceil(max_ratio * D) in steps of ratio_step."""
    max_level = math.ceil(Fraction(max_ratio) * n_features)
    return range(0, max_level + 1, ratio_step)


def noise_sequence_seed(master_seed: int, dataset_index: int, kind: NoiseKind) -> int:
    """Seed of the noise-column sequence shared by every cell of one curve pair."""
    return derive_seed(master_seed, dataset_index, _SEED_CODES[kind], _NOISE_SEQUENCE_STREAM)


def cell_kmeans_seed(
    master_seed: int,
    dataset_index: int,
    kind: NoiseKind,
    scaling: ScalingKind,
    level: int,
    repeat: int,
) -> int:
    """k-means seed of one repeat inside one sweep cell.

    At level 0 the noise kind is replaced by a fixed placeholder so that the
    baseline cells of both noise kinds are identical.
    """
    kind_code = _SEED_CODES[kind] if level > 0 else _BASELINE_KIND_CODE
    return derive_seed(master_seed, dataset_index, kind_code, _SEED_CODES[scaling], level, repeat)


def resolve_workers(workers: int) -> int:
    """Worker count of a sweep: 0 means one worker per CPU this process may
    run on (its affinity set, where the platform reports one)."""
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return workers


def _error_code(exc: Exception) -> str:
    if isinstance(exc, InvalidNoiseRange):
        return "uniform-range"
    name = type(exc).__name__
    slug = "".join(("-" + ch.lower()) if ch.isupper() else ch for ch in name).lstrip("-")
    return slug


@dataclass(frozen=True, eq=False)
class _Cell:
    """One sweep cell: a dataset, noise kind, scaling and augmentation level.

    `curve` is the read-only matrix of the baseline with the curve's fixed
    noise columns up to its largest level stacked to the right, shared by
    every cell of the curve: a cell's unscaled matrix is a column prefix of
    it. It is None when noise is redrawn per repeat, or when the curve's
    draw raised: the cell then draws its own columns and meets that error
    itself.
    """

    dataset_index: int
    base: LabeledDataset
    spec: NoiseSpec
    curve: Optional[np.ndarray]
    scaling: ScalingKind
    level: int


def _cell_rows(
    cell: _Cell,
    config: SweepConfig,
    scores: Sequence[dict[str, np.ndarray]] = (),
    error: Optional[Exception] = None,
) -> list[SweepCell]:
    """The cell's row per metric: its values, joined in repeat order from
    `scores` (one evaluate_clustering result per matrix), and their mean and
    population std, or NaN and status error:<code> when the cell failed
    (`error`, whose text becomes the message) or the metric has a
    non-finite value."""
    key = dict(
        dataset=cell.base.name,
        noise=cell.spec.kind.value,
        scaling=cell.scaling.value,
        level=cell.level,
        ratio=cell.level / cell.base.n_features,
    )
    failed = None if error is None else _error_code(error)
    rows = []
    for metric in METRIC_NAMES:
        values = np.concatenate([score[metric] for score in scores]) if scores else np.empty(0)
        code = failed or (None if np.all(np.isfinite(values)) else "non-finite-metric")
        message = "" if code is None else str(error) if failed else NON_FINITE_MESSAGE
        rows.append(
            SweepCell(
                **key,
                metric=metric,
                mean=math.nan if code else float(values.mean()),
                std=math.nan if code else float(values.std()),
                repeats=config.repeats,
                status=f"error:{code}" if code else "ok",
                values=tuple(values.tolist()),
                message=message,
            )
        )
    return rows


def _cell_matrices(cell: _Cell, config: SweepConfig):
    """Yield (scaled matrix, k-means seeds of the repeats clustered on it).

    Every matrix is the baseline with the cell's `level` noise columns (none
    at level 0) stacked to the right. A cell of a fixed-noise curve reads it
    as the column prefix of the curve's matrix, one matrix for all its
    repeats: unscaled, that read-only view is the matrix and the cell owns
    none; scaled, it is scaled into one new array. A strided prefix gives
    the products and reductions the same bits as a contiguous copy. Any
    other cell stacks its matrix into a new array and scales it in place, so
    it is the one matrix-sized array the cell holds: a redraw cell with
    columns to draw draws them once per repeat, one matrix each; a cell of a
    curve whose draw raised draws its own columns once.
    """
    base, spec, level = cell.base, cell.spec, cell.level
    seeds = [
        cell_kmeans_seed(
            config.master_seed, cell.dataset_index, spec.kind, cell.scaling, level, repeat
        )
        for repeat in range(config.repeats)
    ]

    def stacked(columns):
        matrix = np.hstack([base.points, columns])
        return apply_scaling(matrix, cell.scaling, out=matrix)

    if config.redraw_noise_per_repeat and level > 0:
        for repeat, seed in enumerate(seeds):
            yield stacked(append_noise(base, spec, level, seed=(spec.seed, repeat))), [seed]
    elif cell.curve is None:
        yield stacked(append_noise(base, spec, level)), seeds
    else:
        prefix = cell.curve[:, : base.n_features + level]
        # none in place writes nothing, so the read-only prefix passes.
        out = prefix if cell.scaling is ScalingKind.NONE else None
        yield apply_scaling(prefix, cell.scaling, out=out), seeds


def _run_cell(cell: _Cell, config: SweepConfig) -> list[SweepCell]:
    # Each matrix's repeats are fitted first and then scored in one metrics
    # pass, which computes every silhouette distance block once per matrix.
    # A matrix whose distances fit one block gets that block up front, and
    # k-means++ reads its centers' distances from it too. The tolerance is
    # taken first, so the matrix-sized temporary of its variance is freed
    # before the distances exist. Both names are dropped before the next
    # matrix is drawn, so the cell owns at most one matrix at a time.
    scores = []
    try:
        for scaled, seeds in _cell_matrices(cell, config):
            tolerance = default_tolerance(scaled)
            distances = pairwise_distances(scaled) if fits_one_block(scaled.shape[0]) else None
            assignments = np.stack(
                [
                    fit(
                        scaled,
                        KMeansConfig(k=cell.base.n_clusters, tolerance=tolerance, seed=seed),
                        distances=distances,
                    ).assignments
                    for seed in seeds
                ]
            )
            scores.append(
                evaluate_clustering(scaled, assignments, cell.base.labels, distances=distances)
            )
            del scaled, distances
    except ValueError as exc:  # degraded cell, sweep continues; bugs propagate
        return _cell_rows(cell, config, error=exc)
    return _cell_rows(cell, config, scores)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute the full sweep described by the config.

    For each (dataset, noise kind, scaling) triple, augmentation levels run
    from 0 to ceil(max_ratio * D) columns in ratio_step increments; each cell
    clusters `repeats` times and records every metric's per-repeat values
    and their mean and population standard deviation. A cell that hits a
    data condition (a ValueError such as a uniform bound mu + 2*sigma that
    is not a positive finite number) is marked error:<code> rather than
    aborting the sweep; any other exception propagates. A draw of no noise
    columns raises nothing, so a level-0 cell never fails on its noise.

    Each fixed-noise curve (a dataset and noise kind) is stacked once into
    one read-only matrix: the baseline with the noise columns of its widest
    level, kept for the whole sweep. Its cells read their matrices as column
    prefixes of it, so the curve holds one extra copy of the baseline and an
    unscaled cell copies nothing (see _cell_matrices).

    With more than one worker the cells run on a thread pool, and OpenBLAS
    (if that is numpy's BLAS) is held to one thread meanwhile, its previous
    count restored afterwards. Every BLAS product runs on one BLAS thread
    whatever the worker count (see cluster_sense.distance), so a serial
    sweep computes the same products, and writes the same bytes, as a pooled
    one. A serial sweep keeps its cores busy only through silhouette's row
    blocks of a matrix of several distance blocks, which run on as many
    threads as OpenBLAS had.
    """
    workers = resolve_workers(config.workers)

    cells = []
    for dataset_index, source in enumerate(config.datasets):
        base = source.load()
        stats = compute_stats(base)
        levels = sweep_levels(base.n_features, config.max_ratio, config.ratio_step)
        width = base.n_features + levels[-1]
        if base.n_points * width * 8 > np.iinfo(np.intp).max:  # bytes of float64 values
            raise ValueError(
                f"max_ratio is too large for dataset {base.name!r}: its widest matrix would "
                f"have {Decimal(width):.3g} columns, more than numpy can index in "
                f"{base.n_points} rows"
            )
        if config.redraw_noise_per_repeat:
            # The widest draw, allocated and dropped unwritten: a sweep whose
            # noise no memory can hold fails here, as a fixed-noise draw
            # does, and does not first build a cell per level.
            np.empty((base.n_points, levels[-1]))
        for kind in config.noise_kinds:
            spec = NoiseSpec(
                kind,
                stats.mu,
                stats.sigma,
                seed=noise_sequence_seed(config.master_seed, dataset_index, kind),
            )
            curve = None
            if not config.redraw_noise_per_repeat:
                # If this raises, each cell draws its columns and meets it.
                with contextlib.suppress(ValueError):
                    curve = np.hstack([base.points, append_noise(base, spec, levels[-1])])
                    curve.flags.writeable = False
            cells.extend(
                _Cell(dataset_index, base, spec, curve, scaling, level)
                for scaling in config.scalings
                for level in levels
            )

    blas_threads = blas_thread_count()
    if workers <= 1:
        outcomes = [_run_cell(cell, config) for cell in cells]
    else:
        # A bug in one cell ends the sweep without running the queued ones.
        outcomes = map_on_one_blas_thread(lambda cell: _run_cell(cell, config), cells, workers)
        blas_threads = None if blas_threads is None else 1

    return SweepResult(
        cells=tuple(row for rows in outcomes for row in rows),
        config=config,
        workers=workers,
        blas_threads=blas_threads,
    )


def summarize_tipping(
    result: SweepResult, metric: str, threshold: float
) -> dict[tuple[str, str, str], Optional[float]]:
    """Smallest sampled ratio at which each curve's mean drops below the
    threshold and stays below for every larger sampled ratio; None if never.

    Curves are keyed by (dataset, noise, scaling); error cells are skipped.
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r} (expected one of {METRIC_NAMES})")

    curves: dict[tuple[str, str, str], list[tuple[float, float]]] = {}
    for cell in result.cells:
        if cell.metric != metric:
            continue
        key = (cell.dataset, cell.noise, cell.scaling)
        curves.setdefault(key, [])
        if cell.status == "ok":
            curves[key].append((cell.ratio, cell.mean))

    tipping: dict[tuple[str, str, str], Optional[float]] = {}
    for key, points in curves.items():
        points.sort()
        answer = None
        for ratio, mean in reversed(points):
            if mean < threshold:
                answer = ratio
            else:
                break
        tipping[key] = answer
    return tipping
