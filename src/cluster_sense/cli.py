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
from typing import Optional

from . import __version__
from .dataset import DatasetFormatError, generate_dim_like, save_dataset
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

_TOP_KEYS = (
    "noise",
    "scaling",
    "max_ratio",
    "ratio_step",
    "repeats",
    "master_seed",
    "redraw_noise_per_repeat",
    "noise_stats",
    "workers",
)
_DATASET_KEYS = (
    "name",
    "dims",
    "clusters",
    "per_cluster",
    "separation",
    "seed",
    "data",
    "labels",
)


def _parse_int(value: str, where: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None


def _parse_float(value: str, where: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return parsed


def _parse_bool(value: str, where: str) -> bool:
    token = value.strip().lower()
    if token == "true":
        return True
    if token == "false":
        return False
    raise ConfigError(f"{where}: expected true or false, got {value!r}")


def _parse_ratio(value: str, where: str) -> Fraction:
    """Accept `3`, `1.5`, or `3:1` forms; result must be positive."""
    token = value.strip()
    try:
        if ":" in token:
            num, den = token.split(":", 1)
            ratio = Fraction(num.strip()) / Fraction(den.strip())
        else:
            ratio = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: expected a ratio like 3, 1.5 or 3:1, got {value!r}") from None
    if ratio <= 0:
        raise ConfigError(f"{where}: ratio must be positive, got {value!r}")
    return ratio


def _parse_tokens(value: str) -> list[str]:
    return [tok for tok in value.replace(",", " ").split() if tok]


def parse_config(path: str | Path) -> SweepConfig:
    """Parse the line-oriented sweep configuration file.

    Format: `key = value` lines, `#` comments, and one `[dataset]` section
    header per dataset. Unknown keys and duplicate keys are errors that name
    the offending line.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    top: dict[str, tuple[int, str]] = {}
    sections: list[dict[str, tuple[int, str]]] = []
    current: Optional[dict[str, tuple[int, str]]] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if line.startswith("["):
            if line != "[dataset]":
                raise ConfigError(f"{where}: unknown section {line!r} (only [dataset] is allowed)")
            current = {}
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected `key = value`, got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        scope = top if current is None else current
        allowed = _TOP_KEYS if current is None else _DATASET_KEYS
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in scope:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        scope[key] = (lineno, value)

    if not sections:
        raise ConfigError(f"{path}: no [dataset] section")

    kwargs = {}
    if "noise" in top:
        lineno, value = top["noise"]
        tokens = _parse_tokens(value)
        if not tokens:
            raise ConfigError(f"{path}:{lineno}: noise list is empty")
        try:
            kwargs["noise_kinds"] = tuple(NoiseKind.parse(tok) for tok in tokens)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if "scaling" in top:
        lineno, value = top["scaling"]
        tokens = _parse_tokens(value)
        if not tokens:
            raise ConfigError(f"{path}:{lineno}: scaling list is empty")
        try:
            kwargs["scalings"] = tuple(ScalingKind.parse(tok) for tok in tokens)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if "max_ratio" in top:
        lineno, value = top["max_ratio"]
        kwargs["max_ratio"] = _parse_ratio(value, f"{path}:{lineno}")
    if "ratio_step" in top:
        lineno, value = top["ratio_step"]
        kwargs["ratio_step"] = _parse_int(value, f"{path}:{lineno}")
    if "repeats" in top:
        lineno, value = top["repeats"]
        kwargs["repeats"] = _parse_int(value, f"{path}:{lineno}")
    if "master_seed" in top:
        lineno, value = top["master_seed"]
        kwargs["master_seed"] = _parse_int(value, f"{path}:{lineno}")
    if "redraw_noise_per_repeat" in top:
        lineno, value = top["redraw_noise_per_repeat"]
        kwargs["redraw_noise_per_repeat"] = _parse_bool(value, f"{path}:{lineno}")
    if "noise_stats" in top:
        lineno, value = top["noise_stats"]
        if value not in ("pooled", "per-feature"):
            raise ConfigError(
                f"{path}:{lineno}: noise_stats must be pooled or per-feature, got {value!r}"
            )
        kwargs["noise_stats_mode"] = value
    if "workers" in top:
        lineno, value = top["workers"]
        workers = _parse_int(value, f"{path}:{lineno}")
        if workers < 0:
            raise ConfigError(f"{path}:{lineno}: workers must be nonnegative, got {value}")
        kwargs["workers"] = workers

    datasets = tuple(
        _parse_dataset_section(path, index, section) for index, section in enumerate(sections)
    )
    try:
        return SweepConfig(datasets=datasets, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_dataset_section(
    path: Path, index: int, section: dict[str, tuple[int, str]]
) -> DatasetSource:
    def where(key: str) -> str:
        return f"{path}:{section[key][0]}"

    has_dims = "dims" in section
    has_files = "data" in section or "labels" in section
    label = f"{path}: [dataset] section {index + 1}"
    if has_dims and has_files:
        raise ConfigError(f"{label}: give either dims (generator) or data/labels (files), not both")
    if not has_dims and not has_files:
        raise ConfigError(f"{label}: needs dims (generator) or data + labels (files)")

    name = section["name"][1] if "name" in section else None

    if has_dims:
        dims = _parse_int(section["dims"][1], where("dims"))
        if dims < 1:
            raise ConfigError(f"{where('dims')}: dims must be positive, got {dims}")
        clusters = 16
        if "clusters" in section:
            clusters = _parse_int(section["clusters"][1], where("clusters"))
            if clusters < 1:
                raise ConfigError(f"{where('clusters')}: clusters must be positive, got {clusters}")
        per_cluster = 64
        if "per_cluster" in section:
            per_cluster = _parse_int(section["per_cluster"][1], where("per_cluster"))
            if per_cluster < 1:
                raise ConfigError(
                    f"{where('per_cluster')}: per_cluster must be positive, got {per_cluster}"
                )
        separation = 10.0
        if "separation" in section:
            separation = _parse_float(section["separation"][1], where("separation"))
            if not separation > 0:
                raise ConfigError(
                    f"{where('separation')}: separation must be positive, got {separation}"
                )
        seed = _parse_int(section["seed"][1], where("seed")) if "seed" in section else 0
        return GeneratorSource(
            name=name if name is not None else f"dim{dims}",
            dims=dims,
            clusters=clusters,
            per_cluster=per_cluster,
            separation=separation,
            seed=seed,
        )

    for key in ("clusters", "per_cluster", "separation", "seed"):
        if key in section:
            raise ConfigError(f"{where(key)}: {key} only applies to generator datasets (dims)")
    if "data" not in section or "labels" not in section:
        raise ConfigError(f"{label}: file datasets need both data and labels")
    data_path = (path.parent / section["data"][1]).as_posix()
    labels_path = (path.parent / section["labels"][1]).as_posix()
    return FileSource(
        name=name if name is not None else Path(data_path).stem,
        data_path=data_path,
        labels_path=labels_path,
    )


# -- CSV emission ------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def summary_csv_text(result: SweepResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SUMMARY_HEADER)
    for cell in result.cells:
        writer.writerow(
            (
                cell.dataset,
                cell.noise,
                cell.scaling,
                _fmt(cell.ratio),
                cell.metric,
                _fmt(cell.mean),
                _fmt(cell.std),
                str(cell.repeats),
                cell.status,
            )
        )
    return out.getvalue()


def raw_csv_text(result: SweepResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RAW_HEADER)
    for value in result.raw or ():
        writer.writerow(
            (
                value.dataset,
                value.noise,
                value.scaling,
                _fmt(value.ratio),
                str(value.repeat),
                value.metric,
                _fmt(value.value),
            )
        )
    return out.getvalue()


# -- subcommands -------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.dims < 1:
        raise ConfigError(f"--dims must be positive, got {args.dims}")
    if args.clusters < 1:
        raise ConfigError(f"--clusters must be positive, got {args.clusters}")
    if args.per_cluster < 1:
        raise ConfigError(f"--per-cluster must be positive, got {args.per_cluster}")
    if not args.separation > 0:
        raise ConfigError(f"--separation must be positive, got {args.separation}")

    dataset = generate_dim_like(
        args.dims, args.clusters, args.per_cluster, args.separation, args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.txt"
    labels_path = out / "labels.txt"
    save_dataset(dataset, data_path, labels_path)
    print(f"wrote {data_path} and {labels_path} ({dataset.n_points} points, {dataset.n_features} features)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.raw:
        config = dataclasses.replace(config, retain_raw=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(config)

    summary_path = out / "summary.csv"
    summary_path.write_text(summary_csv_text(result), encoding="utf-8")
    emitted = [("summary_csv", "summary.csv")]
    if args.raw:
        raw_path = out / "raw.csv"
        raw_path.write_text(raw_csv_text(result), encoding="utf-8")
        emitted.append(("raw_csv", "raw.csv"))

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

    # Manifest goes last so its file list only names files that already exist.
    manifest = {
        "config_path": str(Path(args.config)),
        "output_dir": str(out),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "workers": result.workers,
        "blas_threads": result.blas_threads,
        "emitted_files": [{"kind": kind, "path": rel} for kind, rel in emitted]
        + [{"kind": "manifest", "path": "manifest.json"}],
    }
    for entry in manifest["emitted_files"][:-1]:
        if not (out / entry["path"]).exists():
            raise OSError(f"expected output file missing: {entry['path']}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {summary_path} ({len(result.cells)} cells)")
    return 0


def _read_summary(path: Path) -> list[dict]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ReportError(f"{path}: cannot read summary CSV: {exc}") from exc
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
        try:
            row["ratio"] = float(row["ratio"])
            row["mean"] = float(row["mean"])
            row["std"] = float(row["std"])
        except ValueError as exc:
            raise ReportError(f"{path}: line {lineno}: {exc}") from None
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
        mean_series = []
        std_series = []
        for dataset in dataset_order:
            if dataset not in by_dataset:
                continue
            points = sorted(by_dataset[dataset], key=lambda row: row["ratio"])
            x = tuple(row["ratio"] for row in points)
            means = tuple(row["mean"] for row in points)
            stds = tuple(row["std"] for row in points)
            mean_series.append(
                Series(
                    label=dataset,
                    x=x,
                    y=means,
                    band=tuple((m - s, m + s) for m, s in zip(means, stds)),
                )
            )
            std_series.append(Series(label=dataset, x=x, y=stds))
        mean_svg = render_panel(
            tuple(mean_series),
            title=f"{metric} mean ({noise} noise, {scaling} scaling)",
            x_label="noise columns per baseline column",
            y_label=f"{metric} mean",
        )
        std_svg = render_panel(
            tuple(std_series),
            title=f"{metric} std ({noise} noise, {scaling} scaling)",
            x_label="noise columns per baseline column",
            y_label=f"{metric} std",
        )
        (out / f"mean_{metric}_{noise}_{scaling}.svg").write_text(mean_svg, encoding="utf-8")
        (out / f"std_{metric}_{noise}_{scaling}.svg").write_text(std_svg, encoding="utf-8")
        written += 2
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
    gen.add_argument("--dims", type=int, required=True, help="number of features")
    gen.add_argument("--clusters", type=int, default=16, help="number of clusters (default 16)")
    gen.add_argument(
        "--per-cluster", type=int, default=64, help="points per cluster (default 64)"
    )
    gen.add_argument(
        "--separation", type=float, default=10.0, help="per-axis center spacing (default 10)"
    )
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument("--out", required=True, help="output directory for data.txt and labels.txt")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute a sweep described by a config file")
    run.add_argument("--config", required=True, help="path to the sweep configuration file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--raw", action="store_true", help="also write per-repeat metric values to raw.csv"
    )
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
