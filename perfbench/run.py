"""cluster-sense benchmark: time whole `cluster-sense run` + `report` sweeps.

    python3 perfbench/run.py --workload dim256_parallel --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload file8k_redraw --trace 1 # per-layer numbers

Run it from anywhere inside a checkout: it imports the package from the
checkout's own `src/` and refuses to run without it. Inputs come from the
workload seed (see workloads.py). Each sweep runs in a fresh child process
whose environment drops the thread-count variables, so BLAS keeps its own
default threading; memory and CPU time come from that child's own rusage.

--trace 0 repeats the sweep until --seconds are used (at least MIN_SAMPLES
times), starts EXTRA_SETUPS set-up-only processes after each sweep, and
reports the end-to-end metrics as medians. --trace 1 alternates
untraced and traced sweeps (plus, for a parallel workload, one traced serial
pass) and reports the per-layer metrics. Both check every output; the last
stdout line is one JSON object {correct, attempted, failed, metrics}, and the
exit code is non-zero when a check fails. Metric names and units are read
from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from layertrace import analyse, tail_percentile
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_ENV_VARS = ("CLUSTER_SENSE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 3
# Set-up-only processes started after each untraced sweep, so that the median
# set-up time rests on several times as many samples as the sweep time.
EXTRA_SETUPS = 2
# No sweep is started that is expected to end after this many seconds.
HARD_LIMIT_S = 140.0

# ARI is below 0 for a clustering worse than chance, so its range starts at -1.
METRIC_RANGES = {
    "nmi": (0.0, 1.0),
    "ri": (0.0, 1.0),
    "ari": (-1.0, 1.0),
    "silhouette": (-1.0, 1.0),
    "davies_bouldin": (0.0, math.inf),
}
SUMMARY_HEADER = "dataset,noise,scaling,ratio,metric,mean,std,repeats,status"


class BenchError(Exception):
    """A sweep process failed or an output check did not hold."""


@dataclass
class Sample:
    """What one child process measured and wrote."""

    label: str
    setup_s: float
    sweep_s: float
    report_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    summary: bytes
    panels: int
    provenance: dict
    spans: list = field(default=None, repr=False)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.summary).hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(label: str, config: Path, workdir: Path, *flags: str):
    """Run child.py in a fresh process; return its result, its own rusage and wall time."""
    result_path = workdir / f"{label}.json"
    command = [
        sys.executable, str(HERE / "child.py"), "--config", str(config),
        "--out", str(workdir / label), "--result", str(result_path), "--src", str(SRC), *flags,
    ]
    with open(workdir / f"{label}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(command + ["--t0", repr(t0)], env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / f"{label}.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"child process {label} exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8")), usage, wall_s


def run_setup(label: str, config: Path, workdir: Path) -> float:
    """Set-up time of one fresh process that stops once its datasets are ready."""
    return spawn(label, config, workdir, "--setup-only")[0]["setup_s"]


def run_child(label: str, config: Path, workdir: Path, trace: bool) -> Sample:
    """Run one sweep in a fresh process and collect its own rusage."""
    result, usage, wall_s = spawn(label, config, workdir, *(["--trace"] if trace else []))
    out = workdir / label
    return Sample(
        label=label,
        setup_s=result["setup_s"],
        sweep_s=result["sweep_s"],
        report_s=result["report_s"],
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        summary=(out / "summary.csv").read_bytes(),
        panels=len(list((out / "figures").glob("*.svg"))),
        provenance=result["provenance"],
        spans=result.get("spans"),
    )


def repeat_until(seconds: float, min_samples: int, once) -> list:
    """Call `once` until the next call would end after `seconds`."""
    start = time.monotonic()
    results = []
    while True:
        began = time.monotonic()
        results.append(once(len(results)))
        took = time.monotonic() - began
        expected_end = time.monotonic() - start + took
        if expected_end > HARD_LIMIT_S or (len(results) >= min_samples and expected_end > seconds):
            return results


# -- output checks ---------------------------------------------------------------

def expected_cells(workload: Workload) -> int:
    num, _, den = workload.max_ratio.partition(":")
    max_ratio = Fraction(num) / Fraction(den or 1)
    levels = len(range(0, math.ceil(max_ratio * workload.dims) + 1, workload.ratio_step))
    kinds = len(workload.noise.split(","))
    scalings = len(workload.scaling.split(","))
    return kinds * scalings * levels


def check_summary(workload: Workload, text: bytes) -> tuple[list[dict], list[str]]:
    """Parse summary.csv and return its rows plus every problem found."""
    lines = text.decode("utf-8").splitlines()
    problems = []
    if not lines or lines[0] != SUMMARY_HEADER:
        return [], [f"summary.csv header is {lines[:1]!r}"]
    rows = list(csv.DictReader(io.StringIO(text.decode("utf-8"))))
    if len(rows) != expected_cells(workload) * len(METRIC_RANGES):
        problems.append(f"{len(rows)} summary rows, expected "
                        f"{expected_cells(workload) * len(METRIC_RANGES)}")
    for row in rows:
        where = f"{row['noise']}/{row['scaling']}/{row['ratio']}/{row['metric']}"
        if row["repeats"] != str(workload.repeats):
            problems.append(f"{where}: repeats {row['repeats']}, expected {workload.repeats}")
        if row["status"] != "ok":
            continue
        lo, hi = METRIC_RANGES[row["metric"]]
        mean, std = float(row["mean"]), float(row["std"])
        if not lo <= mean <= hi:
            problems.append(f"{where}: mean {mean} outside [{lo}, {hi}]")
        if not 0.0 <= std < math.inf:
            problems.append(f"{where}: std {std} is not a finite non-negative number")
    return rows, problems


def check_samples(workload: Workload, samples: list[Sample]) -> tuple[list[dict], list[str]]:
    """All sweeps wrote the first sweep's bytes, and those bytes are sound."""
    first = samples[0]
    problems = [
        f"{s.label} summary.csv sha256 {s.sha256} differs from {first.label} {first.sha256}"
        for s in samples[1:] if s.summary != first.summary
    ]
    rows, row_problems = check_summary(workload, first.summary)
    panels = 2 * len(METRIC_RANGES) * len(workload.noise.split(",")) * len(workload.scaling.split(","))
    problems += [f"{s.label} report wrote {s.panels} panels, expected {panels}"
                 for s in samples if s.panels != panels]
    return rows, problems + row_problems


# -- metrics -----------------------------------------------------------------------

def ari_final(rows: list[dict]) -> float:
    """Mean ARI over the curves at the highest noise ratio."""
    top = max(float(r["ratio"]) for r in rows)
    values = [float(r["mean"]) for r in rows
              if r["metric"] == "ari" and float(r["ratio"]) == top and r["status"] == "ok"]
    return statistics.fmean(values) if values else math.nan


def end_to_end(workload: Workload, samples: list[Sample], setups: list[float],
               rows: list[dict]) -> dict:
    fits = len(rows) // len(METRIC_RANGES) * workload.repeats
    return {
        "sweep_s": (statistics.median(s.sweep_s for s in samples), len(samples)),
        "fits_per_s": (statistics.median(fits / s.sweep_s for s in samples), len(samples)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), len(samples)),
        "ari_final": (ari_final(rows), 1),
    }


def per_layer(untraced: list[Sample], traced: list[Sample], serial) -> tuple[dict, dict]:
    """The per-layer metrics, and a note to print beside some of them."""
    layers = [analyse(s.spans) for s in traced]
    metrics = {name: (statistics.median(layer[name] for layer in layers), len(layers))
               for name in layers[0]}
    sweep_s = metrics["experiment.run_sweep_s"][0]
    speedup = analyse(serial.spans)["experiment.run_sweep_s"] / sweep_s if serial else 1.0
    notes = {
        "kmeans.fit_ms_tail": f"p{tail_percentile(int(metrics['kmeans.fit_calls'][0])):g}",
        "experiment.speedup_vs_serial": "measured" if serial else "constant 1: serial workload",
    }
    n = len(untraced)
    metrics.update({
        "experiment.speedup_vs_serial": (speedup, len(layers)),
        "proc.cpu_s": (statistics.median(s.cpu_s for s in untraced), n),
        "proc.cpu_per_wall": (statistics.median(s.cpu_s / s.wall_s for s in untraced), n),
        "cli.report_s": (statistics.median(s.report_s for s in untraced), n),
        "trace.overhead_frac": (
            statistics.median(s.sweep_s for s in traced)
            / statistics.median(s.sweep_s for s in untraced) - 1.0,
            len(layers),
        ),
    })
    return metrics, notes


# -- one workload -------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 min_samples: int = MIN_SAMPLES) -> dict:
    """Generate the inputs, measure, check, and return the result set."""
    workdir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    configs = write_inputs(workload, seed, workdir)
    serial = None
    if trace:
        def pair(i):
            # Alternate which side runs first, so drift does not favour one.
            order = (False, True) if i % 2 == 0 else (True, False)
            done = {t: run_child(f"{'traced' if t else 'untraced'}{i}", configs["main"], workdir, t)
                    for t in order}
            return done[False], done[True]

        pairs = repeat_until(seconds, 1, pair)
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        if workload.parallel:
            serial = run_child("serial", configs["serial"], workdir, trace=True)
        samples = untraced + traced + ([serial] if serial else [])
    else:
        def once(i):
            sample = run_child(f"sweep{i}", configs["main"], workdir, trace=False)
            return sample, [run_setup(f"setup{i}-{j}", configs["main"], workdir)
                            for j in range(EXTRA_SETUPS)]

        done = repeat_until(seconds, min_samples, once)
        samples = [sample for sample, _ in done]
        setups = [s.setup_s for s in samples] + [t for _, extra in done for t in extra]
    rows, problems = check_samples(workload, samples)
    if trace:
        measured, notes = per_layer(untraced, traced, serial)
    else:
        measured, notes = end_to_end(workload, samples, setups, rows), {}
    failed = sum(1 for r in rows if r["status"] != "ok") * len(samples)
    attempted = len(rows) * len(samples)
    if not problems:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "samples": n} for name, (value, n) in measured.items()},
        "notes": notes,
        "summary_sha256": samples[0].sha256,
        "provenance": samples[0].provenance,
        "workdir": None if not problems else str(workdir),
    }


# -- reporting ----------------------------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def machine() -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def emit(result: dict, declared: list[dict]) -> dict:
    """Print the human-readable lines of one result; return its JSON metrics."""
    computed = result["metrics"]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(computed))
    extra = sorted(set(computed) - set(names))
    if missing or extra:
        raise BenchError(f"metrics not matching BENCHMARK.json: missing {missing}, undeclared {extra}")
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"summary.csv sha256 {result['summary_sha256']}")
    out = {}
    for metric in declared:
        value = computed[metric["name"]]["value"]
        note = result["notes"].get(metric["name"])
        print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']:<8} "
              f"(n={computed[metric['name']]['samples']}{', ' + note if note else ''})")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if not result["trace"]:
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_cell_frac':<32} {frac:>14.6g} {'1':<8} "
              f"({result['failed']} of {result['attempted']} summary rows)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if result["workdir"]:
        print(f"  outputs kept in {result['workdir']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running sweep is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "cluster_sense" / "__init__.py").is_file():
        print(f"error: {ROOT} needs BENCHMARK.json and the package under src/", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    printed = {}
    try:
        for name in names:
            results.append(run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace)))
            printed[name] = emit(results[-1], declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps({
        "machine": machine(),
        "workloads": [{"workload": r["workload"], "seed": r["seed"], **r["provenance"]}
                      for r in results],
    }))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": printed[names[0]] if len(names) == 1 else printed,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
