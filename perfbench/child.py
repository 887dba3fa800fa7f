"""One measured sweep process: set up, `cluster-sense run`, `cluster-sense report`.

Started by run.py with the package's source directory on PYTHONPATH. It
reports its timings (and, traced, its spans) as JSON in the --result file:
set-up runs from the parent's spawn time (--t0, a CLOCK_MONOTONIC reading,
which all processes share on Linux) to the moment every dataset of the
config is loaded; the sweep is then timed through the real CLI entry point.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the datasets are loaded; report only setup_s")
    args = parser.parse_args()

    import cluster_sense
    from cluster_sense import cli

    src = Path(args.src).resolve()
    if src not in Path(cluster_sense.__file__).resolve().parents:
        print(f"error: imported {cluster_sense.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    config = cli.parse_config(args.config)
    for source in config.datasets:
        source.load()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        run_code = cli.main(["run", "--config", args.config, "--out", args.out])
        sweep_s = time.perf_counter() - start
        start = time.perf_counter()
        report_code = cli.main(
            ["report", "--summary", str(Path(args.out) / "summary.csv"),
             "--out", str(Path(args.out) / "figures")]
        )
        report_s = time.perf_counter() - start
    finally:
        unrestored = tracer.uninstall() if tracer is not None else []

    result = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "report_s": report_s,
        "run_code": run_code,
        "report_code": report_code,
        "unrestored": unrestored,
        "provenance": provenance(config),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0 if run_code == 0 and report_code == 0 and not unrestored else 1


def provenance(config) -> dict:
    import numpy

    import cluster_sense

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "cluster_sense": cluster_sense.__version__,
        "resolved_config": json.loads(json.dumps(dataclasses.asdict(config), default=str)),
    }


if __name__ == "__main__":
    sys.exit(main())
