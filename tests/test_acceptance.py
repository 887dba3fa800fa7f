"""Acceptance gate: end-to-end checks of the injection-sweep pipeline.

Eight numbered criteria cover metric-oracle equivalence, chance adjustment,
baseline clustering quality, noise-resilience and tipping-point behaviour of
the sweep harness, internal-metric sensitivity, scaling equivalence, and
byte-level determinism. Each test prints one `[criterion N] name: PASS/FAIL`
line; thresholds are fixed here and are not tuned by the tests themselves.
"""

import json
import math
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    ari_oracle,
    davies_bouldin_oracle,
    nmi_oracle,
    rand_index_oracle,
    silhouette_oracle,
)

from cluster_sense import cli
from cluster_sense.dataset import generate_dim_like
from cluster_sense.experiment import (
    GeneratorSource,
    SweepConfig,
    run_sweep,
    summarize_tipping,
)
from cluster_sense.kmeans import KMeansConfig, fit
from cluster_sense.metrics import (
    adjusted_rand_index,
    contingency,
    davies_bouldin,
    nmi,
    rand_index,
    silhouette,
)
from cluster_sense.perturb import NoiseKind
from cluster_sense.scale import ScalingKind, apply_scaling

MASTER_SEED = 0
RATIO_GRID = [i * 0.25 for i in range(13)]  # step 8 on a 32-feature baseline


def _verdict(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def _means(result, noise, scaling, metric):
    cells = {
        c.ratio: c
        for c in result.cells
        if c.noise == noise and c.scaling == scaling and c.metric == metric
    }
    assert all(cells[r].status == "ok" for r in RATIO_GRID)
    return [cells[r] for r in RATIO_GRID]


@pytest.fixture(scope="session")
def resilience_sweeps():
    """Unscaled Gaussian sweeps over Dim-64/128/256 analogues, 10 repeats."""
    t0 = time.perf_counter()
    results = {}
    for dims in (64, 128, 256):
        config = SweepConfig(
            datasets=(GeneratorSource(name=f"dim{dims}", dims=dims),),
            noise_kinds=(NoiseKind.GAUSSIAN,),
            scalings=(ScalingKind.NONE,),
            max_ratio=Fraction(3),
            ratio_step=dims // 8,
            repeats=10,
            master_seed=MASTER_SEED,
        )
        results[dims] = run_sweep(config)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def injection_sweep_dim32():
    """Dim-32 analogue, both noise kinds, all scalings, 50 repeats."""
    config = SweepConfig(
        datasets=(GeneratorSource(name="dim32", dims=32),),
        noise_kinds=(NoiseKind.GAUSSIAN, NoiseKind.UNIFORM),
        scalings=(ScalingKind.NONE, ScalingKind.CENTERED, ScalingKind.STANDARDIZED),
        max_ratio=Fraction(3),
        ratio_step=8,
        repeats=50,
        master_seed=MASTER_SEED,
    )
    return run_sweep(config)


@pytest.fixture(scope="session")
def uniform_sweep_dim256():
    """Dim-256 analogue, unscaled uniform noise, same ratio granularity."""
    config = SweepConfig(
        datasets=(GeneratorSource(name="dim256", dims=256),),
        noise_kinds=(NoiseKind.UNIFORM,),
        scalings=(ScalingKind.NONE,),
        max_ratio=Fraction(3),
        ratio_step=32,
        repeats=10,
        master_seed=MASTER_SEED,
    )
    return run_sweep(config)


def test_criterion_1_metric_oracles(capsys):
    """RI/ARI match pair enumeration exactly; NMI, S, DB within 1e-12."""
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 61))
        predicted = rng.integers(0, int(rng.integers(2, 7)), n)
        truth = rng.integers(0, int(rng.integers(2, 7)), n)
        predicted[0], predicted[1] = 0, 1  # geometry metrics need >= 2 clusters
        table = contingency(predicted, truth)
        ok &= rand_index(table) == rand_index_oracle(predicted, truth)
        ok &= adjusted_rand_index(table) == ari_oracle(predicted, truth)
        ok &= abs(nmi(table) - nmi_oracle(predicted, truth)) <= 1e-12
        points = rng.normal(size=(n, int(rng.integers(2, 7))))
        ok &= abs(silhouette(points, [predicted])[0] - silhouette_oracle(points, predicted)) <= 1e-12
        ok &= (
            abs(davies_bouldin(points, predicted) - davies_bouldin_oracle(points, predicted))
            <= 1e-12
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _verdict(capsys, 1, "metric oracle agreement", ok, f"200 pairs in {elapsed:.1f}s")
    assert ok


def test_criterion_2_ari_chance_adjustment(capsys):
    """Uniform-random labelings score near zero ARI on average."""
    rng = np.random.default_rng(20260816)
    truth = np.repeat(np.arange(4), 25)
    values = [
        adjusted_rand_index(contingency(rng.integers(0, 4, 100), truth))
        for _ in range(1000)
    ]
    mean = float(np.mean(values))
    ok = abs(mean) < 0.02
    _verdict(capsys, 2, "chance-level ARI adjustment", ok, f"mean={mean:+.5f}")
    assert ok


def test_criterion_3_baseline_recovery(capsys):
    """Best of 10 seeded runs recovers the generating labels when clean."""
    t0 = time.perf_counter()
    base = generate_dim_like(32, 16, 64, 10.0, seed=0)
    scaled = apply_scaling(base.points, ScalingKind.STANDARDIZED)
    runs = [fit(scaled, KMeansConfig(k=base.n_clusters, seed=s)) for s in range(10)]
    best = min(runs, key=lambda r: r.inertia)
    table = contingency(best.assignments, base.labels)
    ari, nmi_value = adjusted_rand_index(table), nmi(table)
    elapsed = time.perf_counter() - t0
    ok = ari >= 0.99 and nmi_value >= 0.99 and elapsed < 30.0
    _verdict(
        capsys, 3, "baseline recovery", ok,
        f"ari={ari:.4f} nmi={nmi_value:.4f} in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_gaussian_resilience(capsys, resilience_sweeps):
    """External metrics stay high under unscaled Gaussian noise at ratio 3."""
    results, elapsed = resilience_sweeps
    parts = []
    ok = elapsed < 600.0
    for dims, result in sorted(results.items()):
        final = {
            c.metric: c.mean for c in result.cells if c.level == 3 * dims and c.status == "ok"
        }
        ok &= final["ari"] >= 0.9 and final["nmi"] >= 0.9
        parts.append(f"dim{dims} ari={final['ari']:.3f} nmi={final['nmi']:.3f}")
    detail = "; ".join(parts) + f"; {elapsed:.0f}s"
    _verdict(capsys, 4, "gaussian noise resilience", ok, detail)
    assert ok, detail


def test_criterion_5_uniform_tipping_point(
    capsys, injection_sweep_dim32, uniform_sweep_dim256
):
    """Uniform noise collapses ARI, later for higher-dimensional baselines."""
    curve = _means(injection_sweep_dim32, "uniform", "none", "ari")
    collapses = any(c.mean < 0.2 for c in curve)
    tip32 = summarize_tipping(injection_sweep_dim32, "ari", 0.2)[("dim32", "uniform", "none")]
    tip256 = summarize_tipping(uniform_sweep_dim256, "ari", 0.2)[("dim256", "uniform", "none")]
    ok = collapses and tip32 is not None and tip32 < (math.inf if tip256 is None else tip256)
    _verdict(
        capsys, 5, "uniform tipping point", ok,
        f"tip(dim32)={tip32} tip(dim256)={tip256}",
    )
    assert ok


def test_criterion_6_internal_metric_sensitivity(capsys, injection_sweep_dim32):
    """Silhouette reacts early and DB degrades, near-monotonically."""
    ok = True
    for noise in ("gaussian", "uniform"):
        for scaling in ("none", "centered", "standardized"):
            sil = [c.mean for c in _means(injection_sweep_dim32, noise, scaling, "silhouette")]
            db = [c.mean for c in _means(injection_sweep_dim32, noise, scaling, "davies_bouldin")]
            half_ratio = RATIO_GRID.index(0.5)
            early_drop = sil[0] - sil[half_ratio]
            total_drop = sil[0] - sil[-1]
            ok &= total_drop > 0 and early_drop >= 0.25 * total_drop
            ok &= db[-1] > db[0]
            ok &= sum(1 for i in range(len(sil) - 1) if sil[i + 1] > sil[i]) <= 1
            ok &= sum(1 for i in range(len(db) - 1) if db[i + 1] < db[i]) <= 1
    _verdict(capsys, 6, "internal metric sensitivity", ok, "6 curves")
    assert ok


def test_criterion_7_standardization_equivalence(capsys, injection_sweep_dim32):
    """After standardization the two noise distributions act alike."""
    ok = True
    fractions = []
    for metric in ("nmi", "ri", "ari", "silhouette", "davies_bouldin"):
        gauss = _means(injection_sweep_dim32, "gaussian", "standardized", metric)
        unif = _means(injection_sweep_dim32, "uniform", "standardized", metric)
        close = sum(
            1 for g, u in zip(gauss, unif) if abs(g.mean - u.mean) < 2 * (g.std + u.std)
        )
        fractions.append(close / len(RATIO_GRID))
        ok &= close / len(RATIO_GRID) >= 0.95
    detail = "close fractions " + ", ".join(f"{f:.2f}" for f in fractions)
    _verdict(capsys, 7, "standardization equivalence", ok, detail)
    assert ok


def test_criterion_8_deterministic_output(capsys, tmp_path):
    """Byte-identical summary CSV across reruns and worker counts."""
    config = textwrap.dedent(
        """\
        noise = gaussian, uniform
        scaling = none, standardized
        max_ratio = 1
        ratio_step = 2
        repeats = 4
        master_seed = 9

        [dataset]
        name = mini
        dims = 6
        clusters = 3
        per_cluster = 12
        seed = 2
        """
    )
    outputs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        config_path = tmp_path / f"{label}.cfg"
        config_path.write_text(f"workers = {workers}\n{config}", encoding="utf-8")
        out = tmp_path / label
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["workers"] == workers
        outputs.append((out / "summary.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(capsys, 8, "deterministic output", ok, "rerun and 1-vs-4 workers")
    assert ok
