"""Output check for one benchmark pass.

A pass's outputs are reduced to a fingerprint. Integer and boolean outputs
(labels, component ids, flags, cluster sizes, counts) are kept exactly, as
SHA-256 digests or small lists. Float outputs (log-density, omega, anomaly
scores, latitude, longitude, CH) are kept as weighted sums, so that two
passes can be compared to a relative tolerance without storing every value.
The fingerprint also carries the counts the invariants are checked on.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
N_ELEMENTS = 15
SUMMARY_SCALES = 2     # raw and log10
SUMMARY_STATISTICS = 7  # size, q1, median, q3, iqr, whisker_low, whisker_high


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def _weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(n, dtype=np.int64)
    return 1.0 + (i * 2654435761 % 1000) / 1000.0, 1.0 + (i * 40503 % 997) / 997.0


def _float_sums(values: np.ndarray) -> dict:
    """Finite-entry mask digest plus two weighted sums and their magnitudes.

    Weights differ per position, so a changed or moved value shifts the sums;
    each sum is compared relative to its magnitude, which cannot cancel.
    """
    finite = np.isfinite(values)
    w1, w2 = _weights(values.size)
    x = np.where(finite, values, 0.0)
    return {
        "finite": _digest(finite),
        "sums": [float(np.sum(w1 * x)), float(np.sum(w2 * x))],
        "scale": [float(np.sum(w1 * np.abs(x))), float(np.sum(w2 * np.abs(x)))],
    }


def _read_columns(path) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader))
    return dict(zip(header, columns))


def _floats(cells) -> np.ndarray:
    return np.array([float(c) if c else np.nan for c in cells])


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def fingerprint_setting(labeling_path, geojson_path, summary_path, report_path=None) -> dict:
    """Fingerprint of one clustering setting's labeling and exports."""
    lab = _read_columns(labeling_path)
    labels = np.array([int(c) for c in lab["cluster_label"]])
    flags = np.array([c == "True" for c in lab["iforest_flag"]])
    n_clusters = int(labels.max()) + 1 if np.any(labels >= 0) else 0
    with open(geojson_path, "r", encoding="utf-8") as fh:
        n_features = len(json.load(fh)["features"])
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary_rows = sum(1 for _ in fh) - 1
    fp = {
        "exact": {
            "n": int(labels.size),
            "labels": _digest(labels),
            "component_id": _digest(np.array([int(c) for c in lab["component_id"]])),
            "iforest_flag": _digest(flags),
            "cluster_sizes": np.bincount(labels[labels >= 0], minlength=n_clusters).tolist(),
            "n_outliers": int(np.sum(labels == -1)),
            "n_flagged": int(np.sum(flags)),
        },
        "float": {
            "log_density": _float_sums(_floats(lab["log_density"])),
            "omega": _float_sums(_floats(lab["omega"])),
            "anomaly_score": _float_sums(_floats(lab["anomaly_score"])),
        },
        "counts": {"geojson_features": n_features, "summary_rows": summary_rows},
    }
    if report_path is not None:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        for key in ("n_samples", "n_clusters", "cluster_sizes", "n_outliers", "n_flagged"):
            fp["counts"][f"report.{key}"] = report[key]
        ch = report["calinski_harabasz"]
        if isinstance(ch, float):
            fp["float"]["calinski_harabasz"] = _float_sums(np.array([ch]))
        else:
            fp["exact"]["calinski_harabasz"] = ch
    return fp


def fingerprint_coords(coords_path) -> dict:
    cols = _read_columns(coords_path)
    return {"latitude": _float_sums(_floats(cols["latitude"])),
            "longitude": _float_sums(_floats(cols["longitude"]))}


def invariant_failures(fp: dict, n_sites: int, contamination: float) -> list[str]:
    """Checks that hold for every correct pass, whatever the seed."""
    ex, counts = fp["exact"], fp["counts"]
    fails = []
    n_outliers = ex["n_outliers"]
    want_flagged = round_half_up(contamination * n_outliers) if n_outliers >= 2 else 0
    if ex["n_flagged"] != want_flagged:
        fails.append(f"n_flagged {ex['n_flagged']} != round_half_up({contamination} * "
                     f"{n_outliers}) = {want_flagged}")
    if ex["n"] != n_sites:
        fails.append(f"labeling has {ex['n']} rows, input has {n_sites} sites")
    if counts["geojson_features"] != n_sites:
        fails.append(f"GeoJSON has {counts['geojson_features']} features, want {n_sites}")
    groups = len(ex["cluster_sizes"]) + (1 if n_outliers else 0)
    want_rows = groups * N_ELEMENTS * SUMMARY_SCALES * SUMMARY_STATISTICS
    if counts["summary_rows"] != want_rows:
        fails.append(f"summary has {counts['summary_rows']} rows, want {want_rows}")
    if "report.n_samples" in counts:
        for key, want in (("n_samples", n_sites), ("n_clusters", len(ex["cluster_sizes"])),
                          ("cluster_sizes", ex["cluster_sizes"]),
                          ("n_outliers", n_outliers), ("n_flagged", ex["n_flagged"])):
            if counts[f"report.{key}"] != want:
                fails.append(f"report.json {key} {counts[f'report.{key}']} != {want}")
    return fails


def _compare_float(path: str, got: dict, want: dict) -> list[str]:
    if got["finite"] != want["finite"]:
        return [f"{path}: finite-entry pattern differs"]
    fails = []
    for g, w, scale in zip(got["sums"], want["sums"], want["scale"]):
        if abs(g - w) > REL_TOL * max(scale, abs(g)):
            fails.append(f"{path}: weighted sum {g!r} != {w!r} (rel tol {REL_TOL})")
    return fails


def mismatches(got: dict, want: dict, path: str = "") -> list[str]:
    """Differences between two fingerprints: exact where exact, REL_TOL on floats."""
    if isinstance(want, dict) and "sums" in want:
        return _compare_float(path, got, want) if isinstance(got, dict) else [f"{path}: missing"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        fails = []
        for key in want:
            fails.extend(mismatches(got[key], want[key], f"{path}.{key}" if path else key))
        return fails
    if isinstance(want, list) and want and isinstance(want[0], dict):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        fails = []
        for i, (g, w) in enumerate(zip(got, want)):
            fails.extend(mismatches(g, w, f"{path}[{i}]"))
        return fails
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def load_reference(path: Path) -> dict:
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
