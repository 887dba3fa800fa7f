"""Benchmark workloads: each one is a sweep config (plus data files) made from a seed.

The program under test only ever sees the files written here. The seed fixes
the generated baseline and the sweep's master seed, so one seed always gives
the same inputs and the same summary bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    per_cluster: int
    noise: str
    scaling: str
    ratio_step: int
    repeats: int
    workers: int
    redraw_noise_per_repeat: bool = False
    from_file: bool = False
    max_ratio: str = "3"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def shrunk(self) -> "Workload":
        """One repeat and two levels (0 and one ratio step) on the same code path."""
        return dataclasses.replace(
            self, repeats=1, max_ratio=f"{self.ratio_step}:{self.dims}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-4 curve: wide BLAS-heavy cells on the experiment thread pool.
        Workload(
            name="dim256_parallel",
            dims=256,
            per_cluster=64,
            noise="gaussian",
            scaling="none",
            ratio_step=32,
            repeats=6,
            workers=2,
        ),
        # n=8192 text-file dataset with per-repeat noise: silhouette builds its
        # own n x n matrix each repeat, 4x the size of the last-level cache.
        Workload(
            name="file8k_redraw",
            dims=16,
            per_cluster=512,
            noise="uniform",
            scaling="standardized",
            ratio_step=16,
            repeats=2,
            workers=1,
            redraw_noise_per_repeat=True,
            from_file=True,
        ),
    )
}


def config_text(workload: Workload, seed: int, workers: Optional[int] = None) -> str:
    """The sweep config of one workload; `workers` overrides the workload's count."""
    lines = [
        f"# perfbench workload {workload.name}, seed {seed}",
        f"noise = {workload.noise}",
        f"scaling = {workload.scaling}",
        f"max_ratio = {workload.max_ratio}",
        f"ratio_step = {workload.ratio_step}",
        f"repeats = {workload.repeats}",
        f"master_seed = {seed}",
        f"workers = {workload.workers if workers is None else workers}",
    ]
    if workload.redraw_noise_per_repeat:
        lines.append("redraw_noise_per_repeat = true")
    lines += ["", "[dataset]"]
    if workload.from_file:
        lines += [f"name = file{workload.dims}", "data = data.txt", "labels = labels.txt"]
    else:
        lines += [
            f"name = dim{workload.dims}",
            f"dims = {workload.dims}",
            f"per_cluster = {workload.per_cluster}",
            f"seed = {seed}",
        ]
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's configs (and data files) into `directory`.

    Returns the config paths: "main" always, and "serial" (the same sweep at
    workers = 1) for parallel workloads.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload.from_file:
        from cluster_sense.dataset import generate_dim_like, save_dataset

        dataset = generate_dim_like(
            workload.dims, 16, workload.per_cluster, 10.0, seed, name=f"file{workload.dims}"
        )
        save_dataset(dataset, directory / "data.txt", directory / "labels.txt")
    configs = {"main": directory / "sweep.cfg"}
    configs["main"].write_text(config_text(workload, seed), encoding="utf-8")
    if workload.parallel:
        configs["serial"] = directory / "sweep_serial.cfg"
        configs["serial"].write_text(config_text(workload, seed, workers=1), encoding="utf-8")
    return configs
