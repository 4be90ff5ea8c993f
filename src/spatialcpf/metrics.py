"""Cluster validity scoring and per-cluster descriptive statistics.

The box plots of each cluster work on one float copy of its rows at a
time: cluster_summary takes the copy (lifted and logged in place for the
log10 scale), and _box_plots sorts it in place and reads the quartiles,
whiskers and the values beyond them off the sorted columns by position.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpf import OUTLIER, ClusterLabeling, group_by_label, sorted_quantiles
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
    groups = group_by_label(labels)
    k = len(groups)
    n = features.shape[0]
    if k < 2:
        raise ParameterError(f"need at least 2 clusters, got {k}")
    overall_mean = features.mean(axis=0)
    between = 0.0
    within = 0.0
    for _, members in groups:
        grp = features[members]
        mu = grp.mean(axis=0)
        between += grp.shape[0] * float(np.sum((mu - overall_mean) ** 2))
        within += float(np.sum((grp - mu) ** 2))
    if within == 0.0:
        return math.inf
    if n <= k:
        raise ParameterError(f"need more samples ({n}) than clusters ({k})")
    return (between / (k - 1)) / (within / (n - k))


# The statistics of each summary row, in the order summary.csv lists them.
STATISTICS = ("size", "q1", "median", "q3", "iqr", "whisker_low", "whisker_high")


@dataclass(frozen=True)
class ClusterSummary:
    """Box-plot statistics as a table of columns, one row per (scale,
    cluster, element) in file order: scale "raw" (mg/kg), then "log10" when
    built with log10_export; clusters ascending, the outlier set (-1) first;
    elements in ELEMENTS order. stats maps each STATISTICS name to its
    column (size int64, the rest float64); beyond_whiskers holds each row's
    values outside the whiskers' fences, ascending, as a list of floats."""
    scale: list
    cluster: np.ndarray
    element: list
    stats: dict
    beyond_whiskers: list


def _box_plots(values: np.ndarray) -> tuple[dict, list]:
    """stats and beyond_whiskers of each column of values, a group's rows
    as a fresh copy that is sorted here in place, all columns at once:
    linear-interpolation quartiles (cpf.sorted_quantiles), fences 1.5 IQR
    beyond them, and the whiskers at the extreme values inside. A sorted
    column's values below the lower fence are its first `below`, those above
    the upper its last `above`, so the whiskers and the values beyond them
    are read off by position."""
    values.sort(axis=0)
    n, columns = values.shape
    q1, median, q3 = sorted_quantiles(values, (0.25, 0.5, 0.75))
    iqr = q3 - q1
    with np.errstate(over="ignore"):  # a fence past the largest float holds every value
        below = np.count_nonzero(values < q1 - 1.5 * iqr, axis=0)
        above = np.count_nonzero(values > q3 + 1.5 * iqr, axis=0)
    stats = {"size": np.full(columns, n), "q1": q1, "median": median, "q3": q3, "iqr": iqr,
             "whisker_low": values[below, np.arange(columns)],
             "whisker_high": values[n - 1 - above, np.arange(columns)]}
    return stats, [column[:low].tolist() + column[n - high:].tolist()
                   for column, low, high in zip(values.T, below.tolist(), above.tolist())]


def cluster_summary(table: SampleTable, labeling: ClusterLabeling,
                    log10_export: bool = False) -> ClusterSummary:
    """Per-cluster, per-element box-plot statistics, one whole-array pass per
    cluster and scale, each on its own copy of the cluster's rows. The
    outlier set (label -1) is a group of its own; an empty cluster below
    n_clusters warns and has no rows. Under log10_export a zero is lifted
    to its column's smallest positive value before the log, which each
    cluster's copy takes in place, so no log10 table of every sample is
    built."""
    if table.n != labeling.n:
        raise ParameterError("table and labeling are not aligned")
    raw = table.concentrations
    scales = ["raw"]
    if log10_export:
        smallest = np.min(raw, axis=0, where=raw > 0, initial=np.inf)
        if np.isinf(smallest).any():
            element = ELEMENTS[np.isinf(smallest).argmax()]
            raise ParameterError(f"no positive values for {element}; cannot log-transform")
        scales.append("log10")
    groups = group_by_label(labeling.labels)
    present = {c for c, _ in groups}
    for c in range(labeling.n_clusters):
        if c not in present:
            warnings.warn(f"cluster {c} is empty; excluded from summary")

    def box_plots(scale: str, members: np.ndarray) -> tuple[dict, list]:
        rows = raw[members]
        if scale == "log10":
            np.copyto(rows, smallest, where=~(rows > 0))
            np.log10(rows, out=rows)
        return _box_plots(rows)

    keys = [(scale, c) for scale in scales for c, _ in groups]
    parts = [box_plots(scale, members) for scale in scales for _, members in groups]
    return ClusterSummary(
        scale=[scale for scale, _ in keys for _ in ELEMENTS],
        cluster=np.repeat([c for _, c in keys], len(ELEMENTS)),
        element=list(ELEMENTS) * len(keys),
        stats={name: np.concatenate([stats[name] for stats, _ in parts]) for name in STATISTICS},
        beyond_whiskers=[beyond for _, column in parts for beyond in column])
