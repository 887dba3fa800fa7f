"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload shrunk to one repeat and two levels through the same
code path as a real run, traced and untraced, and checks that:
- BENCHMARK.json keeps to the benchmark's format rules;
- every declared end-to-end and per-layer metric is emitted with its unit;
- self times are non-negative and, for serial workloads, experiment.self_s
  plus the top-level layer times accounts for the run_sweep wall time;
- a traced sweep restores every patched function afterwards;
- without the package sources the benchmark exits non-zero and prints no
  result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, write_inputs

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Top-level layers under run_sweep; with one worker they tile its wall time.
TOP_LAYERS = (
    "experiment.self_s", "dataset.load_s", "dataset.compute_stats_s", "perturb.append_noise_s",
    "scale.apply_scaling_s", "distance.cell_matrix_s", "kmeans.init_s", "kmeans.lloyd_s",
    "metrics.evaluate_s",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        check(bool(NAME.match(name)), f"bad name {name!r}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(bool(UNIT.match(metric["unit"])) and metric["better"] in ("higher", "lower"),
              f"bad unit or direction in {metric}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "a bound outside (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s must have the largest bound")
    print("ok  BENCHMARK.json format")


def check_restored() -> None:
    """Trace one tiny in-process sweep and check every original is back."""
    from cluster_sense import cli
    from layertrace import Tracer

    workdir = run.WORK / "selftest-restore"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = write_inputs(WORKLOADS["dim256_parallel"].shrunk(), 0, workdir)["main"]
    tracer = Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.targets()]
    tracer.install()
    check(all(owner.__dict__[attr] is not fn for owner, attr, fn in before), "install patched nothing")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(workdir / "out")])
    left = tracer.uninstall()
    check(code == 0 and tracer.spans, "traced in-process sweep failed or recorded no spans")
    check(not left and all(owner.__dict__[attr] is fn for owner, attr, fn in before),
          f"not restored after a traced run: {left}")
    shutil.rmtree(workdir)
    print(f"ok  {len(before)} patched functions restored after a traced run")


def check_workload(name: str, spec: dict) -> None:
    workload = WORKLOADS[name].shrunk()
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result = run.run_workload(workload, seed=0, seconds=0, trace=trace, min_samples=1)
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            emitted = run.emit(result, declared)
        check(result["correct"], f"{name} trace={trace}: {result['problems']}")
        for metric in declared:
            value = emitted[metric["name"]]
            check(value["unit"] == metric["unit"] and math.isfinite(value["value"]),
                  f"{name}: {metric['name']} emitted as {value}")
            check(f" {metric['unit']} " in printed.getvalue(), f"{name}: unit of {metric['name']} not printed")
        if trace:
            layers = {k: v["value"] for k, v in emitted.items()}
            check(all(layers[k] >= 0 for k in TOP_LAYERS), f"{name}: negative layer time")
            if not workload.parallel:
                tiled = sum(layers[k] for k in TOP_LAYERS)
                check(abs(tiled - layers["experiment.run_sweep_s"]) < 1e-6,
                      f"{name}: layers sum to {tiled}, run_sweep took {layers['experiment.run_sweep_s']}")
            check(0 < layers["experiment.busy_frac"] <= 1.0, f"{name}: busy_frac out of (0, 1]")
    print(f"ok  {name}: every metric emitted with its unit, outputs checked")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dim256_parallel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          f"without src/ the benchmark exited {done.returncode} printing {done.stdout!r}")
    print("ok  refuses to run without the package sources")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    check_spec(spec)
    check_restored()
    for name in WORKLOADS:
        check_workload(name, spec)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
