"""Outside-in layer tracing for one sweep process, and the per-layer metrics.

`Tracer.install` replaces each traced function where its caller looks it up
(module globals and class attributes) with a wrapper that records a span:
name, parent span, thread, start, end and a few attributes of the call.
Parents come from a per-thread stack; spans opened on a pool thread with an
empty stack belong to the open `experiment.run_sweep` span. Spans stay in
memory until the process writes them out; `uninstall` puts every original
back. `analyse` turns a span list into the per-layer metrics and needs no
import of the package, so the parent benchmark process can run it.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _fit_attrs(args, kwargs, result):
    n, d = _arg(args, kwargs, 0, "matrix").shape
    return {
        "n": n,
        "d": d,
        "k": _arg(args, kwargs, 1, "config").k,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _silhouette_attrs(args, kwargs, result):
    return {"reuse": _arg(args, kwargs, 2, "distances") is not None}


def _matrix_attrs(args, kwargs, result):
    return {"n": _arg(args, kwargs, 0, "x").shape[0]}


def _noise_attrs(args, kwargs, result):
    return {"columns": _arg(args, kwargs, 2, "count")}


def _load_attrs(args, kwargs, result):
    return {"points": result.n_points}


class Tracer:
    """Records spans around the package's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep_span = None
        self._installed: list[tuple[object, str, str, object]] = []

    def targets(self):
        from cluster_sense import cli, experiment, kmeans, metrics
        from cluster_sense.experiment import FileSource, GeneratorSource

        def run_sweep_attrs(args, kwargs, result):
            config = _arg(args, kwargs, 0, "config")
            return {
                "cells": len(result.cells) // len(metrics.METRIC_NAMES),
                "repeats": config.repeats,
                "workers": experiment.resolve_workers(config.workers),
            }

        return [
            (cli, "parse_config", "cli.parse_config", None),
            (cli, "run_sweep", "experiment.run_sweep", run_sweep_attrs),
            (cli, "summary_csv_text", "cli.summary_csv_text", None),
            (cli, "render_panel", "svgplot.render_panel", None),
            (GeneratorSource, "load", "dataset.load", _load_attrs),
            (FileSource, "load", "dataset.load", _load_attrs),
            (experiment, "compute_stats", "dataset.compute_stats", None),
            (experiment, "append_noise", "perturb.append_noise", _noise_attrs),
            (experiment, "apply_scaling", "scale.apply_scaling", None),
            (experiment, "pairwise_distances", "distance.cell_matrix", _matrix_attrs),
            (experiment, "fit", "kmeans.fit", _fit_attrs),
            (kmeans, "kmeanspp_init", "kmeans.kmeanspp_init", None),
            (experiment, "evaluate_clustering", "metrics.evaluate_clustering", None),
            (metrics, "nmi", "metrics.nmi", None),
            (metrics, "rand_index", "metrics.rand_index", None),
            (metrics, "adjusted_rand_index", "metrics.adjusted_rand_index", None),
            (metrics, "silhouette", "metrics.silhouette", _silhouette_attrs),
            (metrics, "pairwise_distances", "distance.silhouette_matrix", _matrix_attrs),
            (metrics, "davies_bouldin", "metrics.davies_bouldin", None),
        ]

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, attrs in self.targets():
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, name, original))
            setattr(owner, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> list[str]:
        """Put every original back; return the names still not restored."""
        for owner, attr, _, original in reversed(self._installed):
            setattr(owner, attr, original)
        left = sorted(
            name for owner, attr, name, original in self._installed
            if owner.__dict__[attr] is not original
        )
        self._installed.clear()
        return left

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._sweep_span
            span = [next(tracer._ids), parent, name, threading.get_ident(), 0.0, 0.0, None]
            stack.append(span[0])
            if name == "experiment.run_sweep":
                tracer._sweep_span = span[0]
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if name == "experiment.run_sweep":
                    tracer._sweep_span = None
                tracer.spans.append(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


# -- analysis ------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def tail_percentile(count: int) -> float:
    """Highest of p50/p90/p99/p99.9 that leaves at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if count * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def _percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def analyse(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep process from its span list.

    Times are sums of span durations (inclusive) unless named self time, which
    is a span's duration minus the union of its child spans.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)

    def duration(s):
        return s[5] - s[4]

    def self_time(s):
        return duration(s) - _union_length((c[4], c[5]) for c in children.get(s[0], ()))

    def named(name):
        return [s for s in spans if s[2] == name]

    def total(name):
        return sum(duration(s) for s in named(name))

    (sweep,) = named("experiment.run_sweep")
    sweep_wall = duration(sweep)
    direct = children.get(sweep[0], [])
    if any(s[4] < sweep[4] or s[5] > sweep[5] for s in direct):
        raise ValueError("a layer span lies outside its run_sweep span")
    if min(self_time(s) for s in spans) < 0.0:
        raise ValueError("a span has negative self time")
    per_thread: dict[int, list] = {}
    for s in direct:
        per_thread.setdefault(s[3], []).append((s[4], s[5]))
    busy = sum(_union_length(iv) for iv in per_thread.values())

    # A fit that raised carries no attributes and is left out.
    fits = [s for s in named("kmeans.fit") if s[6] is not None]
    fit_ms = [duration(s) * 1e3 for s in fits]
    lloyd_s = sum(self_time(s) for s in fits)
    gflop = sum(
        (a["iterations"] + 1) * 2 * a["n"] * a["k"] * a["d"] for a in (s[6] for s in fits)
    ) / 1e9
    tail = tail_percentile(len(fits))
    silhouettes = named("metrics.silhouette")
    matrices = named("distance.cell_matrix") + named("distance.silhouette_matrix")

    return {
        "experiment.run_sweep_s": sweep_wall,
        "experiment.self_s": self_time(sweep),
        "experiment.busy_frac": busy / (sweep[6]["workers"] * sweep_wall),
        "experiment.cells": sweep[6]["cells"],
        "kmeans.fit_calls": len(fits),
        "kmeans.fit_ms_p50": statistics.median(fit_ms),
        "kmeans.fit_ms_tail": _percentile(fit_ms, tail),
        "kmeans.lloyd_s": lloyd_s,
        "kmeans.lloyd_gflop": gflop,
        "kmeans.lloyd_gflop_per_s": gflop / lloyd_s,
        "kmeans.init_s": total("kmeans.kmeanspp_init"),
        "kmeans.iterations_mean": statistics.fmean(s[6]["iterations"] for s in fits),
        "kmeans.converged_frac": statistics.fmean(float(s[6]["converged"]) for s in fits),
        "metrics.evaluate_s": total("metrics.evaluate_clustering"),
        "metrics.external_s": total("metrics.nmi")
        + total("metrics.rand_index")
        + total("metrics.adjusted_rand_index"),
        "metrics.silhouette_s": total("metrics.silhouette"),
        "metrics.silhouette_reuse_frac": statistics.fmean(
            float(s[6]["reuse"]) for s in silhouettes
        ),
        "metrics.davies_bouldin_s": total("metrics.davies_bouldin"),
        "distance.cell_matrix_s": total("distance.cell_matrix"),
        "distance.matrices_built": len(matrices),
        "distance.matrix_gb": sum(s[6]["n"] ** 2 * 8 for s in matrices) / 1e9,
        "perturb.append_noise_s": total("perturb.append_noise"),
        "perturb.columns_drawn": sum(s[6]["columns"] for s in named("perturb.append_noise")),
        "scale.apply_scaling_s": total("scale.apply_scaling"),
        "scale.calls": len(named("scale.apply_scaling")),
        "dataset.load_s": total("dataset.load"),
        "dataset.compute_stats_s": total("dataset.compute_stats"),
        "dataset.points": sum(s[6]["points"] for s in named("dataset.load")),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.summary_csv_s": total("cli.summary_csv_text"),
        "svgplot.render_s": total("svgplot.render_panel"),
        "svgplot.panels": len(named("svgplot.render_panel")),
    }
