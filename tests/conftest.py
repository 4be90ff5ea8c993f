import csv
from types import SimpleNamespace

import numpy as np
import pytest

from spatialcpf.ingest import ELEMENTS
from spatialcpf.metrics import STATISTICS


def two_blob_dataset(seed, n_per_blob=200, separation=20.0):
    """Two Gaussian feature blobs with a geographically co-partitioned layout.

    Geography is an isotropic image of the features on Irish extents, so the
    spatial and geochemical graphs separate the blobs identically.
    """
    rng = np.random.default_rng(seed)
    features = np.vstack([
        rng.normal(0.0, 1.0, (n_per_blob, 2)),
        rng.normal(separation, 1.0, (n_per_blob, 2)),
    ])
    geo = np.stack([
        53.0 + 0.01 * features[:, 1],
        -8.0 + 0.01 * features[:, 0] / np.cos(np.radians(53.0)),
    ], axis=1)
    truth = np.array([0] * n_per_blob + [1] * n_per_blob)
    return features, geo, truth


def surrogate_survey(n=600, seed=0, n_regions=4, anomaly_fraction=0.03):
    """G5-shaped synthetic survey: regional geochemical signatures on a
    jittered grid over Ireland plus a few scattered anomalous sites.

    Returns (site_ids, easting, northing, concentrations[n, 15]).
    """
    rng = np.random.default_rng(seed)
    # Regional centers in ITM meters.
    centers = rng.uniform([480000, 580000], [720000, 920000], (n_regions, 2))
    region = rng.integers(0, n_regions, n)
    jitter = rng.normal(0, 25000, (n, 2))
    coords = centers[region] + jitter
    coords[:, 0] = np.clip(coords[:, 0], 420000, 770000)
    coords[:, 1] = np.clip(coords[:, 1], 520000, 970000)

    base = rng.uniform(0.5, 3.0, (n_regions, len(ELEMENTS)))
    log_conc = base[region] + rng.normal(0, 0.25, (n, len(ELEMENTS)))
    n_anom = max(1, int(anomaly_fraction * n))
    anom_idx = rng.choice(n, size=n_anom, replace=False)
    log_conc[anom_idx] += rng.uniform(1.5, 3.0, (n_anom, len(ELEMENTS)))
    conc = np.exp(log_conc)

    site_ids = [f"S{i:05d}" for i in range(n)]
    return site_ids, coords[:, 0], coords[:, 1], conc


def write_survey_csv(path, site_ids, easting, northing, conc):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["SITE_ID", "EASTING", "NORTHING", *ELEMENTS])
        for i, sid in enumerate(site_ids):
            writer.writerow([sid, repr(float(easting[i])), repr(float(northing[i])),
                             *(repr(float(v)) for v in conc[i])])


@pytest.fixture
def survey_csv(tmp_path):
    path = tmp_path / "survey.csv"
    write_survey_csv(path, *surrogate_survey(n=400, seed=7))
    return path


def summary_row(summary, cluster, element, scale="raw"):
    """The statistics and beyond_whiskers of a ClusterSummary's one row for
    (scale, cluster, element), as attributes."""
    keys = list(zip(summary.scale, summary.cluster.tolist(), summary.element))
    assert keys.count((scale, cluster, element)) == 1
    row = keys.index((scale, cluster, element))
    return SimpleNamespace(beyond_whiskers=summary.beyond_whiskers[row],
                           **{name: summary.stats[name][row] for name in STATISTICS})
