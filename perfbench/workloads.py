"""Seeded input generators for the benchmark workloads.

The survey recipe is a copy of the test suite's surrogate survey rather than
an import of it, so that editing a test cannot move the benchmark.
"""

from __future__ import annotations

import csv

import numpy as np

# Column order of the survey CSV; must match spatialcpf.ingest.ELEMENTS.
ELEMENTS = (
    "As", "Ba", "Bi", "Co", "Cr", "Cu", "Mn", "Mo",
    "Ni", "Pb", "Sb", "Sn", "U", "V", "Zn",
)

SURVEY_SITES = 4278
ONE_COMPONENT_SITES = 8000

# Extent of the generated ITM coordinates, in meters.
EASTING = (420000.0, 770000.0)
NORTHING = (520000.0, 970000.0)


def surrogate_survey(n: int, seed: int, n_regions: int = 5, anomaly_fraction: float = 0.03):
    """Regional geochemical signatures on a jittered layout over Ireland plus
    a few scattered anomalous sites. Returns (site_ids, easting, northing, conc)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform([480000, 580000], [720000, 920000], (n_regions, 2))
    region = rng.integers(0, n_regions, n)
    jitter = rng.normal(0, 25000, (n, 2))
    coords = centers[region] + jitter
    coords[:, 0] = np.clip(coords[:, 0], *EASTING)
    coords[:, 1] = np.clip(coords[:, 1], *NORTHING)

    base = rng.uniform(0.5, 3.0, (n_regions, len(ELEMENTS)))
    log_conc = base[region] + rng.normal(0, 0.25, (n, len(ELEMENTS)))
    n_anom = max(1, int(anomaly_fraction * n))
    anom_idx = rng.choice(n, size=n_anom, replace=False)
    log_conc[anom_idx] += rng.uniform(1.5, 3.0, (n_anom, len(ELEMENTS)))
    conc = np.exp(log_conc)

    site_ids = [f"S{i:05d}" for i in range(n)]
    return site_ids, coords[:, 0], coords[:, 1], conc


def smooth_field(n: int, seed: int, noise: float = 0.05):
    """Sites uniform over the ITM extent whose log-concentrations are a linear
    function of location plus small noise, so the feature and geographic
    neighbourhoods agree and the intersected graph is one large component."""
    rng = np.random.default_rng(seed)
    easting = rng.uniform(*EASTING, n)
    northing = rng.uniform(*NORTHING, n)
    unit = np.stack([(easting - EASTING[0]) / (EASTING[1] - EASTING[0]),
                     (northing - NORTHING[0]) / (NORTHING[1] - NORTHING[0])], axis=1)
    intercept = rng.uniform(0.5, 3.0, len(ELEMENTS))
    slope = rng.uniform(-1.0, 1.0, (2, len(ELEMENTS)))
    log_conc = intercept + unit @ slope + rng.normal(0, noise, (n, len(ELEMENTS)))
    site_ids = [f"S{i:05d}" for i in range(n)]
    return site_ids, easting, northing, np.exp(log_conc)


def write_survey_csv(path, site_ids, easting, northing, conc) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["SITE_ID", "EASTING", "NORTHING", *ELEMENTS])
        for i, sid in enumerate(site_ids):
            writer.writerow([sid, repr(float(easting[i])), repr(float(northing[i])),
                             *(repr(float(v)) for v in conc[i])])


# Settings of the retune loop; min_samples stays at the default, so the
# geographic graph built once per pass serves every setting.
RETUNE_SETTINGS = (
    {"alpha": 0.015, "merge_threshold": 7.5, "contamination": 0.30},
    {"alpha": 0.03, "merge_threshold": 5.0, "contamination": 0.20},
    {"alpha": 0.01, "merge_threshold": 10.0, "contamination": 0.40},
)
DEFAULT_CONTAMINATION = 0.30


def generate(workload: str, seed: int, n: int | None = None):
    """Survey columns for a workload: (site_ids, easting, northing, conc).
    n overrides the workload's site count (the self-test uses small inputs)."""
    if workload == "one_component":
        return smooth_field(n or ONE_COMPONENT_SITES, seed)
    return surrogate_survey(n or SURVEY_SITES, seed)


def contaminations(workload: str) -> list[float]:
    """Isolation Forest contamination of each clustering setting in a pass."""
    if workload == "retune":
        return [s["contamination"] for s in RETUNE_SETTINGS]
    return [DEFAULT_CONTAMINATION]
