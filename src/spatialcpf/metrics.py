"""Cluster validity scoring and per-cluster descriptive statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpf import OUTLIER, ClusterLabeling
from .errors import ParameterError
from .ingest import ELEMENTS, SampleTable


def calinski_harabasz(features: np.ndarray, labeling: ClusterLabeling,
                      include_outliers: bool = False) -> float:
    """Between/within dispersion ratio normalized by degrees of freedom.

    Outliers (label -1) are excluded unless include_outliers is set, in which
    case they are scored as one extra group. Returns +inf when the within-
    cluster dispersion is exactly zero.
    """
    features = np.asarray(features, dtype=float)
    labels = labeling.labels
    if not include_outliers:
        mask = labels != OUTLIER
        features = features[mask]
        labels = labels[mask]
    ids = np.unique(labels)
    k = ids.size
    n = features.shape[0]
    if k < 2:
        raise ParameterError(f"need at least 2 clusters, got {k}")
    overall_mean = features.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in ids:
        grp = features[labels == c]
        mu = grp.mean(axis=0)
        between += grp.shape[0] * float(np.sum((mu - overall_mean) ** 2))
        within += float(np.sum((grp - mu) ** 2))
    if within == 0.0:
        return math.inf
    if n <= k:
        raise ParameterError(f"need more samples ({n}) than clusters ({k})")
    return (between / (k - 1)) / (within / (n - k))


@dataclass(frozen=True)
class BoxStats:
    size: int
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_low: float
    whisker_high: float
    outlier_values: tuple[float, ...]


@dataclass(frozen=True)
class ClusterSummary:
    """stats[(cluster_id, element)] -> BoxStats in raw mg/kg. When built with
    log10_export, log10_stats carries the same keys computed on log10 values
    (for plotting against log-scaled axes); otherwise it is empty."""
    stats: dict
    log10_stats: dict


def _box_stats(values: np.ndarray) -> BoxStats:
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])  # linear interpolation
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    beyond = values[(values < lo_fence) | (values > hi_fence)]
    return BoxStats(
        size=values.size,
        median=float(med), q1=float(q1), q3=float(q3), iqr=float(iqr),
        whisker_low=float(inside.min()), whisker_high=float(inside.max()),
        outlier_values=tuple(float(v) for v in np.sort(beyond)),
    )


def cluster_summary(table: SampleTable, labeling: ClusterLabeling,
                    log10_export: bool = False) -> ClusterSummary:
    """Per-cluster, per-element box-plot statistics on raw mg/kg values.

    The outlier set (label -1) is summarized as its own group. Under
    log10_export, a parallel set of statistics on log10(value) is added;
    non-positive raw values are lifted to the column's smallest positive
    value first so the log is always defined.
    """
    if table.n != labeling.n:
        raise ParameterError("table and labeling are not aligned")
    labels = labeling.labels
    raw = table.concentrations
    logged = None
    if log10_export:
        safe = raw.copy()
        for j in range(safe.shape[1]):
            col = safe[:, j]
            positive = col[col > 0]
            if positive.size == 0:
                raise ParameterError(
                    f"no positive values for {ELEMENTS[j]}; cannot log-transform")
            col[col <= 0] = positive.min()
        logged = np.log10(safe)
    stats = {}
    log10_stats = {}
    groups = [c for c in range(labeling.n_clusters)]
    if np.any(labels == OUTLIER):
        groups.append(OUTLIER)
    for c in groups:
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            warnings.warn(f"cluster {c} is empty; excluded from summary")
            continue
        for j, element in enumerate(ELEMENTS):
            stats[(c, element)] = _box_stats(raw[members, j])
            if logged is not None:
                log10_stats[(c, element)] = _box_stats(logged[members, j])
    return ClusterSummary(stats=stats, log10_stats=log10_stats)
