"""Baseline labeled datasets: synthetic generator, text loader, pooled stats.

The generator produces Dim-style benchmarks: k isotropic unit-variance
Gaussian blobs whose centers sit on a jittered axis-aligned grid such that
any two centers are at least one grid spacing apart on every axis.
"""

from __future__ import annotations

import array
import math
import string
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import derive_rng

_GENERATOR_STREAM = 0x0D5E7

# Fraction of the grid spacing used as uniform jitter on center coordinates.
_JITTER_FRACTION = 0.1

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class DatasetFormatError(ValueError):
    """Raised when a data or label file does not match the text format."""


def is_plain_ascii(text: str) -> bool:
    """True when `text` is ASCII and holds no underscore.

    Python's int(), float() and Fraction() also read other scripts' digits,
    Unicode whitespace and `_` digit separators (`1_0` is 10). A number read
    from a file passes this check before it is parsed, so that only ASCII
    base-10 forms are accepted.
    """
    return text.isascii() and "_" not in text


def dense_remap(labels: np.ndarray) -> np.ndarray:
    """Remap arbitrary integer labels to [0, k) by order of first appearance."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first_pos, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first_pos))
    return order[inverse]


@dataclass(frozen=True)
class LabeledDataset:
    """Point matrix with ground-truth cluster labels.

    points: (n, d) float64 matrix, one point per row.
    labels: (n,) integer cluster id per row, covering every id in [0, k)
    for k = n_clusters = labels.max() + 1.
    """

    points: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] == 0:
            raise ValueError("points must be a non-empty 2-D matrix")
        if labels.shape != (points.shape[0],):
            raise ValueError(
                f"labels length {labels.shape} does not match {points.shape[0]} points"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain non-finite entries")
        present = np.unique(labels)
        if present[0] != 0 or present.size != present[-1] + 1:
            raise ValueError(f"labels must cover every id in [0, {present[-1] + 1}) at least once")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DatasetStats:
    """Pooled first/second moments of a point matrix.

    mu/sigma pool every matrix entry; sigma is the population (divide by n)
    standard deviation.
    """

    mu: float
    sigma: float


def generate_dim_like(
    d: int,
    n_clusters: int,
    points_per_cluster: int,
    separation: float,
    seed: int,
    name: str | None = None,
) -> LabeledDataset:
    """Generate k unit-variance Gaussian blobs separated on every axis.

    Center placement: on each axis independently, the k clusters are assigned
    the k grid coordinates {0, separation, ..., (k-1)*separation} in a random
    order, so any two centers differ by at least `separation` on every axis.
    Each center coordinate is then jittered by Uniform(+-0.1*separation).
    Deterministic for fixed arguments; rows are grouped by cluster. A
    separation whose largest grid coordinate plus jitter overflows float64
    raises ValueError before anything is drawn.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if points_per_cluster < 1:
        raise ValueError(f"points_per_cluster must be positive, got {points_per_cluster}")
    if not 0 < separation < math.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    if not math.isfinite((n_clusters - 1) * separation + _JITTER_FRACTION * separation):
        raise ValueError(
            f"separation {separation} with {n_clusters} clusters puts the centers "
            f"past the float64 range"
        )

    rng = derive_rng(seed, _GENERATOR_STREAM)
    # One independent cluster->grid-row assignment per axis.
    grid = np.empty((n_clusters, d))
    for axis in range(d):
        grid[:, axis] = rng.permutation(n_clusters) * separation
    jitter = rng.uniform(
        -_JITTER_FRACTION * separation, _JITTER_FRACTION * separation, size=(n_clusters, d)
    )
    centers = grid + jitter

    n = n_clusters * points_per_cluster
    points = rng.standard_normal((n, d))
    labels = np.repeat(np.arange(n_clusters, dtype=np.int64), points_per_cluster)
    points += centers[labels]

    return LabeledDataset(
        points=points,
        labels=labels,
        name=name if name is not None else f"dim{d}",
    )


def compute_stats(data: LabeledDataset) -> DatasetStats:
    """Mean and population standard deviation over every matrix entry.

    Entries near the float64 limit can make either of them inf or nan. No
    numpy warning is printed for that: the noise draw that reads them raises
    a ValueError naming them.
    """
    points = data.points
    if points.shape[0] < 2:
        raise ValueError("at least 2 rows are required to compute stats")
    with np.errstate(over="ignore", invalid="ignore"):
        return DatasetStats(mu=float(points.mean()), sigma=float(points.std()))


def load_dataset(data_path: str | Path, labels_path: str | Path, name: str | None = None) -> LabeledDataset:
    """Read the plain-text point/label file pair.

    Data file: one point per line, features split on ASCII whitespace.
    Label file: one base-10 integer per line. Both files are ASCII, with no
    `_` digit separators, and lines end at "\n", "\r\n" or "\r". Labels are
    remapped to a dense [0, k) range in order of first appearance.
    """
    data_path = Path(data_path)
    labels_path = Path(labels_path)

    points = _parse_data_lines(data_path)
    raw_labels = _parse_label_lines(labels_path)
    if len(raw_labels) != len(points):
        raise DatasetFormatError(
            f"{labels_path}: {len(raw_labels)} labels for {len(points)} data lines in {data_path}"
        )

    return LabeledDataset(
        points=points,
        labels=dense_remap(raw_labels),
        name=name if name is not None else data_path.stem,
    )


def save_dataset(data: LabeledDataset, data_path: str | Path, labels_path: str | Path) -> None:
    """Write the loader's text format; floats round-trip binary64 exactly."""
    data_lines = [" ".join(repr(v) for v in row) for row in data.points.tolist()]
    Path(data_path).write_text("\n".join(data_lines) + "\n", encoding="utf-8")
    label_lines = [str(v) for v in data.labels.tolist()]
    Path(labels_path).write_text("\n".join(label_lines) + "\n", encoding="utf-8")


def read_lines(path: Path, error: type[Exception]) -> Iterator[str]:
    """The lines of a UTF-8 text file, read one at a time, trailing blank
    lines dropped. Text mode ends a line only at "\n", "\r\n" or "\r":
    str.splitlines would also end one at U+2028 and other separators, which
    a line must not contain. A byte that is not UTF-8 raises `error`.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            blank = []
            for line in handle:
                blank.append(line.rstrip("\n"))
                if blank[-1].strip():
                    yield from blank
                    blank.clear()
        except UnicodeDecodeError as exc:
            bad = f"byte {exc.object[exc.start]:#04x}: {exc.reason}"
            raise error(f"{path}: not UTF-8 text ({bad})") from None


def _parse_data_lines(path: Path) -> np.ndarray:
    # Each row goes into a float64 buffer as it is parsed, so neither the
    # file's text nor a list of Python floats (32 bytes a value) is held.
    values = array.array("d")
    width = None
    for lineno, line in enumerate(read_lines(path, DatasetFormatError), start=1):
        tokens = line.split()
        if not tokens:
            raise DatasetFormatError(f"{path}: line {lineno}: blank line inside data")
        try:
            if not is_plain_ascii(line):
                raise ValueError
            row = [float(tok) for tok in tokens]
        except ValueError:
            # bytes.split splits at ASCII whitespace only, so a token joined
            # by a no-break space is reported whole.
            ascii_tokens = [tok.decode("utf-8") for tok in line.encode("utf-8").split()]
            bad = next(tok for tok in ascii_tokens if not _is_number(tok))
            raise DatasetFormatError(
                f"{path}: line {lineno}: invalid numeric token {bad!r}"
            ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {width} values, found {len(row)}"
            )
        values.extend(row)
    if width is None:
        raise DatasetFormatError(f"{path}: data file is empty")
    points = np.frombuffer(values).reshape(-1, width)

    non_finite = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if non_finite.size:
        # Data lines have no gaps (blank lines are rejected above): row i is line i + 1.
        raise DatasetFormatError(f"{path}: line {non_finite[0] + 1}: non-finite value")
    return points


def _parse_label_lines(path: Path) -> list[int]:
    labels = []
    for lineno, line in enumerate(read_lines(path, DatasetFormatError), start=1):
        token = line.strip(string.whitespace)
        try:
            if not is_plain_ascii(line):
                raise ValueError
            label = int(token, 10)
        except ValueError:
            raise DatasetFormatError(
                f"{path}: line {lineno}: invalid integer label {token!r}"
            ) from None
        if not _INT64_MIN <= label <= _INT64_MAX:
            raise DatasetFormatError(
                f"{path}: line {lineno}: label {token!r} does not fit a 64-bit integer"
            )
        labels.append(label)
    return labels


def _is_number(token: str) -> bool:
    if not is_plain_ascii(token):
        return False
    try:
        float(token)
        return True
    except ValueError:
        return False
