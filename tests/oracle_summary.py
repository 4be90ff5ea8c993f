"""Per-(cluster, element) box-plot loop, the oracle for metrics.cluster_summary
and the two summary writers.

The summary the package computed before it worked by columns: one BoxStats
per (cluster, element), computed from that cell's values alone, a second
dict of the same keys on log10 values, and each writer walking the sorted
keys of both. summary_text and plot_data_text give the text the writers
wrote, so pipeline.write_summary and pipeline.export_plot_data must write
exactly these bytes.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from spatialcpf.errors import ParameterError
from spatialcpf.ingest import ELEMENTS

STATISTICS = ("size", "q1", "median", "q3", "iqr", "whisker_low", "whisker_high")


@dataclass(frozen=True)
class BoxStats:
    size: int
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_low: float
    whisker_high: float
    outlier_values: tuple


def box_stats(values: np.ndarray) -> BoxStats:
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


def cluster_summary(concentrations, labels, n_clusters, log10_export=False) -> dict:
    """{scale: {(cluster, element): BoxStats}}; "log10" only under
    log10_export, on values whose non-positive entries are lifted to their
    column's smallest positive value."""
    raw = np.asarray(concentrations, dtype=float)
    scales = {"raw": raw}
    if log10_export:
        safe = raw.copy()
        for j in range(safe.shape[1]):
            col = safe[:, j]
            positive = col[col > 0]
            if positive.size == 0:
                raise ParameterError(
                    f"no positive values for {ELEMENTS[j]}; cannot log-transform")
            col[col <= 0] = positive.min()
        scales["log10"] = np.log10(safe)
    for c in range(n_clusters):
        if c not in set(labels.tolist()):
            warnings.warn(f"cluster {c} is empty; excluded from summary")
    return {scale: {(c, element): box_stats(values[labels == c, j])
                    for c in sorted(set(labels.tolist()))
                    for j, element in enumerate(ELEMENTS)}
            for scale, values in scales.items()}


def summary_text(summary: dict) -> str:
    """summary.csv: one line per (scale, cluster, element, statistic)."""
    rows = [(c, element, scale, name, getattr(s, name))
            for scale, stats in summary.items()
            for (c, element), s in sorted(stats.items())
            for name in STATISTICS]
    return _text(["cluster", "element", "scale", "statistic", "value"], rows)


def plot_data_text(summary: dict) -> str:
    """plot_data.csv: one line per (scale, cluster, element)."""
    rows = [(c, element, scale, s.size, s.q1, s.median, s.q3, s.whisker_low, s.whisker_high,
             ";".join(map(repr, s.outlier_values)))
            for scale, stats in summary.items()
            for (c, element), s in sorted(stats.items())]
    return _text(["cluster", "element", "scale", "size", "q1", "median", "q3",
                  "whisker_low", "whisker_high", "beyond_whiskers"], rows)


def _text(header, rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
