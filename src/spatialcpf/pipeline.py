"""Pipeline orchestration: config parsing, staged execution, and exports.

Every stage reads/writes plain files so that running stages one at a time
produces byte-identical final exports to a single run_pipeline() call.
Floats are serialized with repr() (shortest round-trip form), which makes
the CSV intermediates lossless.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import cpf, geodesy, graph, iforest, ingest, metrics
from .errors import ParameterError, SpatialCpfError


class StageError(SpatialCpfError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


GEO_METRICS = ("haversine", "euclidean_degrees", "euclidean_itm")
FEATURE_CHOICES = ("standardized", "raw")
SECTION_KEYS = {
    "cpf": tuple(f.name for f in fields(cpf.CpfParams)),
    "iforest": ("n_trees", "subsample_size", "contamination", "features"),
    "calinski_harabasz": ("include_outliers", "features"),
}


def _section(raw: dict, name: str) -> dict:
    """Pop a nested config section, rejecting non-mappings and unknown keys."""
    section = raw.pop(name, {})
    if not isinstance(section, dict):
        raise ParameterError(f"config section {name} must be a mapping, got {section!r}")
    unknown = sorted(set(section) - set(SECTION_KEYS[name]))
    if unknown:
        raise ParameterError(f"unknown config keys in {name}: {unknown}")
    return section


@dataclass
class PipelineConfig:
    input: str
    output_dir: str = "out"
    bdl_policy: str = "half_dl"
    scaling: str = "zscore"
    geo_metric: str = "haversine"
    cpf_params: cpf.CpfParams = field(default_factory=cpf.CpfParams)
    iforest_n_trees: int = 100
    iforest_subsample_size: int = 256
    iforest_contamination: float = 0.30
    iforest_features: str = "standardized"
    ch_include_outliers: bool = False
    ch_features: str = "standardized"
    log10_export: bool = True
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        raw = dict(raw)
        cpf_raw = _section(raw, "cpf")
        if_raw = _section(raw, "iforest")
        ch_raw = _section(raw, "calinski_harabasz")
        cfg = cls(
            input=raw.pop("input"),
            output_dir=raw.pop("output_dir", "out"),
            bdl_policy=raw.pop("bdl_policy", "half_dl"),
            scaling=raw.pop("scaling", "zscore"),
            geo_metric=raw.pop("geo_metric", "haversine"),
            cpf_params=cpf.CpfParams(**cpf_raw),
            iforest_n_trees=if_raw.get("n_trees", 100),
            iforest_subsample_size=if_raw.get("subsample_size", 256),
            iforest_contamination=if_raw.get("contamination", 0.30),
            iforest_features=if_raw.get("features", "standardized"),
            ch_include_outliers=ch_raw.get("include_outliers", False),
            ch_features=ch_raw.get("features", "standardized"),
            log10_export=raw.pop("log10_export", True),
            seed=raw.pop("seed", 0),
        )
        unknown = set(raw)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ParameterError(f"config file {path} is not a mapping")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if not Path(self.input).exists():
            raise ParameterError(f"input file does not exist: {self.input}")
        if self.bdl_policy not in ("half_dl", "reject"):
            raise ParameterError(f"bad bdl_policy: {self.bdl_policy}")
        if self.scaling not in ("zscore", "none"):
            raise ParameterError(f"bad scaling: {self.scaling}")
        if self.geo_metric not in GEO_METRICS:
            raise ParameterError(f"bad geo_metric: {self.geo_metric}")
        if self.iforest_features not in FEATURE_CHOICES:
            raise ParameterError(f"bad iforest.features: {self.iforest_features}")
        if self.ch_features not in FEATURE_CHOICES:
            raise ParameterError(f"bad calinski_harabasz.features: {self.ch_features}")
        if not 0.0 < self.iforest_contamination < 1.0:
            raise ParameterError(
                f"iforest.contamination must be in (0, 1), got {self.iforest_contamination}")
        if self.iforest_n_trees < 1 or self.iforest_subsample_size < 2:
            raise ParameterError("bad iforest tree settings")
        if type(self.seed) is not int or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        p = self.cpf_params
        return {
            "input": self.input,
            "output_dir": self.output_dir,
            "bdl_policy": self.bdl_policy,
            "scaling": self.scaling,
            "geo_metric": self.geo_metric,
            "cpf": {
                "min_samples": p.min_samples, "rho": p.rho, "alpha": p.alpha,
                "merge_threshold": p.merge_threshold,
                "density_ratio_threshold": p.density_ratio_threshold,
                "min_component_size": p.component_size_floor,
            },
            "iforest": {
                "n_trees": self.iforest_n_trees,
                "subsample_size": self.iforest_subsample_size,
                "contamination": self.iforest_contamination,
                "features": self.iforest_features,
            },
            "calinski_harabasz": {
                "include_outliers": self.ch_include_outliers,
                "features": self.ch_features,
            },
            "log10_export": self.log10_export,
            "seed": self.seed,
        }

    # Default intermediate/export file locations under output_dir.
    def path(self, name: str) -> Path:
        return Path(self.output_dir) / name


FILES = {
    "samples": "samples.csv",
    "coords": "coords.csv",
    "adjacency": "geo_adjacency.bin",
    "labeling": "labeling.csv",
    "summary": "summary.csv",
    "plot_data": "plot_data.csv",
    "geojson": "clusters.geojson",
    "report": "report.json",
}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


# ---------------------------------------------------------------- stages

def stage_ingest(config: PipelineConfig, in_path=None, out_path=None) -> Path:
    """Parse the raw survey CSV and write the normalized sample table."""
    src = in_path or config.input
    out = Path(out_path) if out_path else config.path(FILES["samples"])
    table = ingest.parse_g5_csv(src, bdl_policy=config.bdl_policy)
    header = ["site_id", "easting", "northing", *table.element_order]
    rows = [
        [r.site_id, r.easting, r.northing,
         *(r.concentrations[e] for e in table.element_order)]
        for r in table.records
    ]
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, header, rows)
    return out


def read_samples(path) -> ingest.SampleTable:
    return ingest.parse_g5_csv(path, bdl_policy="half_dl")


def stage_project(config: PipelineConfig, in_path=None, out_path=None) -> Path:
    """Convert ITM coordinates to WGS84 and write site_id, lat, lon."""
    src = in_path or config.path(FILES["samples"])
    out = Path(out_path) if out_path else config.path(FILES["coords"])
    table = read_samples(src)
    rows = []
    for r in table.records:
        lat, lon = geodesy.itm_to_wgs84(r.easting, r.northing)
        rows.append([r.site_id, lat, lon])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["site_id", "latitude", "longitude"], rows)
    return out


def _read_coords(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return np.array([(float(r["latitude"]), float(r["longitude"])) for r in reader])


def stage_graph(config: PipelineConfig, in_path=None, out_path=None,
                samples_path=None) -> Path:
    """Build the geographic mutual kNN graph and dump it in binary form."""
    out = Path(out_path) if out_path else config.path(FILES["adjacency"])
    k = config.cpf_params.min_samples
    if config.geo_metric == "euclidean_itm":
        table = read_samples(samples_path or config.path(FILES["samples"]))
        adj = graph.mutual_knn_graph(table.itm_coords(), k=k, metric="euclidean")
    else:
        coords = _read_coords(in_path or config.path(FILES["coords"]))
        metric = "haversine" if config.geo_metric == "haversine" else "euclidean"
        adj = graph.mutual_knn_graph(coords, k=k, metric=metric)
    out.parent.mkdir(parents=True, exist_ok=True)
    graph.dump_adjacency(adj, out)
    return out


def _features_for(config: PipelineConfig, table: ingest.SampleTable):
    raw = ingest.select_features(table)
    scaled, params = ingest.standardize(raw, method=config.scaling)
    return raw, scaled, params


def stage_cluster(config: PipelineConfig, samples_path=None, adjacency_path=None,
                  out_path=None) -> Path:
    """Run spatial-CPF and write the labeling CSV."""
    table = read_samples(samples_path or config.path(FILES["samples"]))
    adj = graph.load_adjacency(adjacency_path or config.path(FILES["adjacency"]))
    _, features, _ = _features_for(config, table)
    result = cpf.fit(features, adj, config.cpf_params)
    out = Path(out_path) if out_path else config.path(FILES["labeling"])
    rows = [
        [table.records[i].site_id, int(result.labeling.labels[i]),
         result.density.log_density[i], result.big_brother.omega[i],
         int(result.components.labels[i])]
        for i in range(table.n)
    ]
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["site_id", "cluster_label", "log_density", "omega", "component_id"], rows)
    return out


def read_labeling(path):
    """Returns (site_ids, labels, log_density, omega, component_id [, scores, flags])."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    labels = np.array([int(r["cluster_label"]) for r in rows])
    out = {
        "site_ids": [r["site_id"] for r in rows],
        "labels": labels,
        "log_density": np.array([float(r["log_density"]) for r in rows]),
        "omega": np.array([float(r["omega"]) for r in rows]),
        "component_id": np.array([int(r["component_id"]) for r in rows]),
    }
    if rows and "anomaly_score" in rows[0]:
        out["anomaly_score"] = np.array(
            [float(r["anomaly_score"]) if r["anomaly_score"] else np.nan for r in rows])
        out["iforest_flag"] = np.array(
            [r["iforest_flag"] == "True" for r in rows])
    return out


def stage_refine(config: PipelineConfig, samples_path=None, labeling_path=None,
                 out_path=None) -> Path:
    """Score the outlier set with an Isolation Forest and append columns."""
    table = read_samples(samples_path or config.path(FILES["samples"]))
    lab_path = labeling_path or config.path(FILES["labeling"])
    lab = read_labeling(lab_path)
    raw, scaled, _ = _features_for(config, table)
    features = scaled if config.iforest_features == "standardized" else raw

    outlier_idx = np.flatnonzero(lab["labels"] == cpf.OUTLIER)
    scores = np.full(table.n, np.nan)
    flags = np.zeros(table.n, dtype=bool)
    if outlier_idx.size >= 2:
        subset = features[outlier_idx]
        model = iforest.fit_iforest(
            subset, n_trees=config.iforest_n_trees,
            subsample_size=config.iforest_subsample_size, seed=config.seed)
        subset_scores = iforest.anomaly_scores(model, subset)
        subset_flags = iforest.flag_outliers(subset_scores, config.iforest_contamination)
        scores[outlier_idx] = subset_scores
        flags[outlier_idx] = subset_flags

    out = Path(out_path) if out_path else lab_path
    rows = []
    for i in range(table.n):
        rows.append([
            lab["site_ids"][i], int(lab["labels"][i]), lab["log_density"][i],
            lab["omega"][i], int(lab["component_id"][i]),
            "" if np.isnan(scores[i]) else _fmt(float(scores[i])),
            bool(flags[i]),
        ])
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["site_id", "cluster_label", "log_density", "omega",
                         "component_id", "anomaly_score", "iforest_flag"])
        for row in rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])
    return out


def stage_summarize(config: PipelineConfig, samples_path=None, labeling_path=None,
                    out_path=None) -> Path:
    """Write the long-format per-cluster, per-element statistics CSV."""
    table = read_samples(samples_path or config.path(FILES["samples"]))
    lab = read_labeling(labeling_path or config.path(FILES["labeling"]))
    labeling = cpf.ClusterLabeling(labels=lab["labels"])
    summary = metrics.cluster_summary(table, labeling, log10_export=config.log10_export)
    out = Path(out_path) if out_path else config.path(FILES["summary"])
    rows = []
    for scale, stats in (("raw", summary.stats), ("log10", summary.log10_stats)):
        for (c, element), s in sorted(stats.items()):
            for stat_name in ("size", "q1", "median", "q3", "iqr",
                              "whisker_low", "whisker_high"):
                rows.append([c, element, scale, stat_name, getattr(s, stat_name)])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["cluster", "element", "scale", "statistic", "value"], rows)
    return out


def export_geojson(site_ids, labels, coords, log_density, path,
                   scores=None, flags=None) -> Path:
    """GeoJSON FeatureCollection of Point features in (lon, lat) order."""
    features = []
    for i, sid in enumerate(site_ids):
        props = {
            "site_id": sid,
            "cluster": int(labels[i]),
            "log_density": float(log_density[i]) if len(log_density) else None,
        }
        if scores is not None:
            props["anomaly_score"] = (
                None if np.isnan(scores[i]) else float(scores[i]))
        props["iforest_flag"] = bool(flags[i]) if flags is not None else False
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [float(coords[i][1]), float(coords[i][0])]},
            "properties": props,
        })
    doc = {"type": "FeatureCollection", "features": features}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=True)
    return path


def export_plot_data(summary: metrics.ClusterSummary, path) -> Path:
    """Box-plot reconstruction data: one row per (cluster, element, scale)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for scale, stats in (("raw", summary.stats), ("log10", summary.log10_stats)):
        for (c, element), s in sorted(stats.items()):
            rows.append([
                c, element, scale, s.size, s.q1, s.median, s.q3,
                s.whisker_low, s.whisker_high,
                ";".join(_fmt(v) for v in s.outlier_values),
            ])
    _write_csv(path, ["cluster", "element", "scale", "size", "q1", "median", "q3",
                      "whisker_low", "whisker_high", "beyond_whiskers"], rows)
    return path


def stage_export(config: PipelineConfig, samples_path=None, coords_path=None,
                 labeling_path=None) -> tuple[Path, Path]:
    """Write the GeoJSON and plot-data exports from existing intermediates."""
    table = read_samples(samples_path or config.path(FILES["samples"]))
    coords = _read_coords(coords_path or config.path(FILES["coords"]))
    lab = read_labeling(labeling_path or config.path(FILES["labeling"]))
    geojson = export_geojson(
        lab["site_ids"], lab["labels"], coords, lab["log_density"],
        config.path(FILES["geojson"]),
        scores=lab.get("anomaly_score"), flags=lab.get("iforest_flag"))
    labeling = cpf.ClusterLabeling(labels=lab["labels"])
    summary = metrics.cluster_summary(table, labeling, log10_export=config.log10_export)
    plot = export_plot_data(summary, config.path(FILES["plot_data"]))
    return geojson, plot


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage in order; abort (removing partial outputs) on error.

    Returns the run report, which is also written to report.json.
    """
    created: list[Path] = []
    timings: dict[str, float] = {}
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)

    def run(stage_name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            for p in created:
                p.unlink(missing_ok=True)
            raise StageError(stage_name, exc) from exc
        timings[stage_name] = time.perf_counter() - start
        if isinstance(result, Path):
            created.append(result)
        elif isinstance(result, tuple):
            created.extend(result)
        return result

    run("ingest", stage_ingest, config)
    run("project", stage_project, config)
    run("graph", stage_graph, config)
    run("cluster", stage_cluster, config)
    run("refine", stage_refine, config)
    run("summarize", stage_summarize, config)
    run("export", stage_export, config)

    # Report metrics from the final labeling.
    table = read_samples(config.path(FILES["samples"]))
    lab = read_labeling(config.path(FILES["labeling"]))
    labeling = cpf.ClusterLabeling(labels=lab["labels"])
    raw, scaled, _ = _features_for(config, table)
    ch_feats = scaled if config.ch_features == "standardized" else raw
    try:
        ch = metrics.calinski_harabasz(ch_feats, labeling,
                                       include_outliers=config.ch_include_outliers)
    except ParameterError:
        ch = None
    sizes = labeling.cluster_sizes()
    report = {
        "n_samples": table.n,
        "n_clusters": labeling.n_clusters,
        "cluster_sizes": sizes,
        "n_outliers": labeling.n_outliers,
        "calinski_harabasz": ch if ch is None or math.isfinite(ch) else "inf",
        "n_flagged": int(np.sum(lab["iforest_flag"])) if "iforest_flag" in lab else 0,
        "stage_seconds": {k: round(v, 4) for k, v in timings.items()},
        "config": config.to_dict(),
        "seed": config.seed,
    }
    with open(config.path(FILES["report"]), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
