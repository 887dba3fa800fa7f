"""Sensitivity of k-means cluster-validity metrics to irrelevant random features.

The package builds well-separated Gaussian benchmark datasets, appends
irrelevant (label-independent) random features in increasing proportions,
clusters with k-means++, and tracks how NMI, Rand index, ARI, Silhouette
and Davies-Bouldin respond across noise distributions and scaling regimes.
The sweep's entry points are re-exported here; the lower-level pieces are
imported from their own modules.
"""

__version__ = "0.1.0"

from .experiment import (
    FileSource,
    GeneratorSource,
    SweepConfig,
    SweepResult,
    run_sweep,
    summarize_tipping,
)

__all__ = [
    "FileSource",
    "GeneratorSource",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "summarize_tipping",
]
