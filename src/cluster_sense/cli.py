"""Command-line harness: generate datasets, run sweeps, render SVG reports.

Exit status discipline: 0 = success (possibly with degraded cells),
2 = usage or configuration error, 1 = runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .dataset import DatasetFormatError, is_plain_ascii, read_lines, save_dataset
from .distance import blas_core_name
from .experiment import (
    DatasetSource,
    FileSource,
    GeneratorSource,
    SweepConfig,
    SweepResult,
    run_sweep,
)
from .metrics import METRIC_NAMES
from .perturb import NoiseKind
from .scale import ScalingKind
from .svgplot import Series, render_panel

SUMMARY_HEADER = ("dataset", "noise", "scaling", "ratio", "metric", "mean", "std", "repeats", "status")
RAW_HEADER = ("dataset", "noise", "scaling", "ratio", "repeat", "metric", "value")


class ConfigError(Exception):
    """Bad flag values or malformed configuration file (usage error, exit 2)."""


class ReportError(Exception):
    """Unusable summary CSV (runtime failure, exit 1)."""


# -- configuration file ------------------------------------------------------
#
# Each key maps to (dataclass field, parser). A parser takes the stripped
# value and returns the field's value, or raises ValueError with a message
# that parse_config prefixes with `file:line: key:`. Keys that are not set
# keep the dataclass defaults. Number parsers accept ASCII forms only (see
# dataset.is_plain_ascii).


def _integer(minimum: Optional[int] = None) -> Callable[[str], int]:
    def parse(value: str) -> int:
        try:
            if not is_plain_ascii(value):
                raise ValueError
            parsed = int(value, 10)
        except ValueError:
            raise ValueError(f"expected an integer, got {value!r}") from None
        if minimum is not None and parsed < minimum:
            raise ValueError(f"must be >= {minimum}, got {parsed}")
        return parsed

    return parse


def _positive_float(value: str) -> float:
    try:
        if not is_plain_ascii(value):
            raise ValueError
        parsed = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise ValueError(f"expected a finite number, got {value!r}")
    if not parsed > 0:
        raise ValueError(f"must be positive, got {parsed}")
    return parsed


def _boolean(value: str) -> bool:
    token = value.lower()
    if token not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return token == "true"


def _ratio(value: str) -> Fraction:
    """Accept `3`, `1.5`, or `3:1` forms; result must be positive."""
    try:
        if not is_plain_ascii(value) or "/" in value:
            raise ValueError
        if ":" in value:
            num, den = value.split(":", 1)
            ratio = Fraction(num.strip()) / Fraction(den.strip())
        else:
            ratio = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a ratio like 3, 1.5 or 3:1, got {value!r}") from None
    if ratio <= 0:
        raise ValueError(f"must be positive, got {value!r}")
    return ratio


def _kinds(parse_one: Callable[[str], object]) -> Callable[[str], tuple]:
    """A comma- or space-separated, non-empty list of distinct enum tokens."""

    def parse(value: str) -> tuple:
        tokens = value.replace(",", " ").split()
        if not tokens:
            raise ValueError("list is empty")
        kinds = tuple(parse_one(tok) for tok in tokens)
        for kind in kinds:
            if kinds.count(kind) > 1:
                raise ValueError(f"{kind.value!r} is listed more than once")
        return kinds

    return parse


_Table = dict[str, tuple[str, Callable[[str], object]]]
_Scope = dict[str, tuple[int, str]]

_TOP_KEYS: _Table = {
    "noise": ("noise_kinds", _kinds(NoiseKind.parse)),
    "scaling": ("scalings", _kinds(ScalingKind.parse)),
    "max_ratio": ("max_ratio", _ratio),
    "ratio_step": ("ratio_step", _integer(minimum=1)),
    "repeats": ("repeats", _integer(minimum=1)),
    "master_seed": ("master_seed", _integer()),
    "redraw_noise_per_repeat": ("redraw_noise_per_repeat", _boolean),
    "workers": ("workers", _integer(minimum=0)),
}
# Generator keys are GeneratorSource fields; data and labels are FileSource
# fields, resolved against the config file's directory.
_DATASET_KEYS: _Table = {
    "name": ("name", str),
    "dims": ("dims", _integer(minimum=1)),
    "clusters": ("clusters", _integer(minimum=1)),
    "per_cluster": ("per_cluster", _integer(minimum=1)),
    "separation": ("separation", _positive_float),
    "seed": ("seed", _integer()),
    "data": ("data_path", str),
    "labels": ("labels_path", str),
}
_FILE_FIELDS = {field.name for field in dataclasses.fields(FileSource)}


def parse_config(path: str | Path) -> SweepConfig:
    """Parse the line-oriented sweep configuration file.

    Format: `key = value` lines, `#` comments, and one `[dataset]` section
    header per dataset. Unknown keys, duplicate keys and bad values are
    errors that name the offending line.
    """
    path = Path(path)

    top: _Scope = {}
    sections: list[_Scope] = []
    scope, table = top, _TOP_KEYS

    for lineno, raw_line in enumerate(read_lines(path, ConfigError), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("["):
            if line != "[dataset]":
                raise ConfigError(f"{where}: unknown section {line!r} (only [dataset] is allowed)")
            scope, table = {}, _DATASET_KEYS
            sections.append(scope)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in scope:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        scope[key] = (lineno, value.strip())

    if not sections:
        raise ConfigError(f"{path}: no [dataset] section")

    fields = _fields(path, top, _TOP_KEYS)
    datasets = tuple(
        _dataset_source(path, index, section) for index, section in enumerate(sections)
    )
    try:
        return SweepConfig(datasets=datasets, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _fields(path: Path, scope: _Scope, table: _Table) -> dict[str, object]:
    """Parse a scope's values into dataclass keyword arguments, in table order."""
    fields = {}
    for key, (field, parse) in table.items():
        if key in scope:
            lineno, value = scope[key]
            try:
                fields[field] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return fields


def _dataset_source(path: Path, index: int, section: _Scope) -> DatasetSource:
    label = f"{path}: [dataset] section {index + 1}"
    has_dims = "dims" in section
    has_files = "data" in section or "labels" in section
    if has_dims and has_files:
        raise ConfigError(f"{label}: give either dims (generator) or data/labels (files), not both")
    if not has_dims and not has_files:
        raise ConfigError(f"{label}: needs dims (generator) or data + labels (files)")
    if has_files:
        for key, (lineno, _) in section.items():
            if _DATASET_KEYS[key][0] not in _FILE_FIELDS:
                raise ConfigError(
                    f"{path}:{lineno}: {key} only applies to generator datasets (dims)"
                )
        if "data" not in section or "labels" not in section:
            raise ConfigError(f"{label}: file datasets need both data and labels")

    fields = _fields(path, section, _DATASET_KEYS)
    if has_dims:
        return GeneratorSource(**{"name": f"dim{fields['dims']}", **fields})
    for field in ("data_path", "labels_path"):
        fields[field] = (path.parent / fields[field]).as_posix()
    return FileSource(**{"name": Path(fields["data_path"]).stem, **fields})


# -- CSV emission ------------------------------------------------------------

def _csv_text(header: tuple[str, ...], records) -> str:
    """A header row, then each record's values under the header's names;
    floats are written as their repr, so they read back bit for bit."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        values = (record[name] for name in header)
        writer.writerow(repr(float(v)) if isinstance(v, float) else str(v) for v in values)
    return out.getvalue()


def summary_csv_text(result: SweepResult) -> str:
    return _csv_text(SUMMARY_HEADER, map(vars, result.cells))


def raw_csv_text(result: SweepResult) -> str:
    """One row per summary row and repeat, in summary order."""
    rows = (
        {**vars(cell), "repeat": repeat, "value": value}
        for cell in result.cells
        for repeat, value in enumerate(cell.values)
    )
    return _csv_text(RAW_HEADER, rows)


# -- subcommands -------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    # Flags follow the [dataset] keys' parsers, so they take the same forms.
    fields = {}
    for key in ("dims", "clusters", "per_cluster", "separation", "seed"):
        field, parse = _DATASET_KEYS[key]
        try:
            fields[field] = parse(getattr(args, key))
        except ValueError as exc:
            raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from None
    dataset = GeneratorSource(name=f"dim{fields['dims']}", **fields).load()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.txt"
    labels_path = out / "labels.txt"
    save_dataset(dataset, data_path, labels_path)
    print(f"wrote {data_path} and {labels_path} ({dataset.n_points} points, {dataset.n_features} features)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(config)

    summary_path = out / "summary.csv"
    summary_path.write_text(summary_csv_text(result), encoding="utf-8")
    (out / "raw.csv").write_text(raw_csv_text(result), encoding="utf-8")

    degraded = {}
    for cell in result.cells:
        if cell.status != "ok":
            key = (cell.dataset, cell.noise, cell.scaling, cell.level, cell.status)
            degraded[key] = degraded.get(key, 0) + 1
    for (dataset, noise, scaling, level, status), count in sorted(degraded.items()):
        print(
            f"warning: {dataset}/{noise}/{scaling} level {level}: "
            f"{count} metric cell(s) marked {status}",
            file=sys.stderr,
        )

    # The manifest goes last, so the files it lists are already written.
    manifest = {
        "config_path": str(Path(args.config)),
        "output_dir": str(out),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "workers": result.workers,
        "blas_threads": result.blas_threads,
        # The OpenBLAS kernel; summary.csv's bits depend on it (None: another BLAS).
        "blas_core": blas_core_name(),
        "emitted_files": [
            {"kind": "summary_csv", "path": "summary.csv"},
            {"kind": "raw_csv", "path": "raw.csv"},
            {"kind": "manifest", "path": "manifest.json"},
        ],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    # result.cells holds one row per metric of each sweep cell.
    print(f"wrote {summary_path} ({len(result.cells) // len(METRIC_NAMES)} cells)")
    return 0


def _read_summary(path: Path) -> list[dict]:
    text = path.read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ReportError(f"{path}: empty file") from None
    if tuple(header) != SUMMARY_HEADER:
        raise ReportError(
            f"{path}: bad header {header!r}, expected {','.join(SUMMARY_HEADER)}"
        )

    rows = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(SUMMARY_HEADER):
            raise ReportError(
                f"{path}: line {lineno}: expected {len(SUMMARY_HEADER)} fields, got {len(record)}"
            )
        row = dict(zip(SUMMARY_HEADER, record))
        if row["metric"] not in METRIC_NAMES:
            raise ReportError(f"{path}: line {lineno}: unknown metric {row['metric']!r}")
        try:
            NoiseKind.parse(row["noise"])
            ScalingKind.parse(row["scaling"])
        except ValueError as exc:
            raise ReportError(f"{path}: line {lineno}: {exc}") from None
        for key in ("ratio", "mean", "std"):
            try:
                if not is_plain_ascii(row[key]):
                    raise ValueError
                row[key] = float(row[key])
            except ValueError:
                raise ReportError(
                    f"{path}: line {lineno}: {key}: expected a number, got {row[key]!r}"
                ) from None
        if not (row["status"] == "ok" or row["status"].startswith("error:")):
            raise ReportError(f"{path}: line {lineno}: bad status {row['status']!r}")
        rows.append(row)
    if not rows:
        raise ReportError(f"{path}: no data rows")
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    rows = _read_summary(Path(args.summary))
    ok_rows = [row for row in rows if row["status"] == "ok"]
    if not ok_rows:
        raise ReportError(f"{args.summary}: every row is error-marked, nothing to plot")

    dataset_order: list[str] = []
    panels: dict[tuple[str, str, str], dict[str, list[dict]]] = {}
    for row in ok_rows:
        if row["dataset"] not in dataset_order:
            dataset_order.append(row["dataset"])
        key = (row["metric"], row["noise"], row["scaling"])
        panels.setdefault(key, {}).setdefault(row["dataset"], []).append(row)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for (metric, noise, scaling), by_dataset in sorted(panels.items()):
        series: dict[str, list[Series]] = {"mean": [], "std": []}
        for dataset in dataset_order:
            if dataset not in by_dataset:
                continue
            points = sorted(by_dataset[dataset], key=lambda row: row["ratio"])
            x = tuple(row["ratio"] for row in points)
            means = tuple(row["mean"] for row in points)
            stds = tuple(row["std"] for row in points)
            band = tuple((m - s, m + s) for m, s in zip(means, stds))
            series["mean"].append(Series(label=dataset, x=x, y=means, band=band))
            series["std"].append(Series(label=dataset, x=x, y=stds))
        for stat, stat_series in series.items():
            svg = render_panel(
                tuple(stat_series),
                title=f"{metric} {stat} ({noise} noise, {scaling} scaling)",
                x_label="noise columns per baseline column",
                y_label=f"{metric} {stat}",
            )
            (out / f"{stat}_{metric}_{noise}_{scaling}.svg").write_text(svg, encoding="utf-8")
            written += 1
    print(f"wrote {written} panels to {out}")
    return 0


# -- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-sense",
        description="Measure how k-means validity metrics react to appended random features.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark dataset as text files")
    gen.add_argument("--dims", required=True, help="number of features")
    for flag, meaning in (
        ("--clusters", "number of clusters"),
        ("--per-cluster", "points per cluster"),
        ("--separation", "per-axis center spacing"),
        ("--seed", "generator seed"),
    ):
        default = getattr(GeneratorSource, flag[2:].replace("-", "_"))
        gen.add_argument(flag, default=str(default), help=f"{meaning} (default %(default)s)")
    gen.add_argument("--out", required=True, help="output directory for data.txt and labels.txt")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute a sweep described by a config file")
    run.add_argument("--config", required=True, help="path to the sweep configuration file")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="render SVG panels from a summary CSV")
    rep.add_argument("--summary", required=True, help="path to summary.csv from `run`")
    rep.add_argument("--out", required=True, help="output directory for SVG panels")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReportError, DatasetFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
