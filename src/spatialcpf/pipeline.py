"""Pipeline orchestration: config parsing, stage computations, and exports.

run_pipeline parses the survey once, passes each stage's result in memory to
the next and writes every artifact once. A stage_* function runs one stage
alone: it reads its inputs from files, runs the same computation and writes
its outputs, so a staged run gives byte-identical exports. Floats are written
with repr() (shortest round-trip form), so the CSV intermediates are lossless.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import yaml

from . import cpf, geodesy, graph, iforest, ingest, metrics
from .cpf import CpfParams
from .errors import DataError, ParameterError, SpatialCpfError, require_type
from .fileio import atomic_open


class StageError(SpatialCpfError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


GEO_METRICS = ("haversine", "euclidean_degrees", "euclidean_itm")
FEATURE_CHOICES = ("standardized", "raw")


@dataclass(frozen=True)
class IforestParams:
    n_trees: int = 100
    subsample_size: int = 256
    contamination: float = 0.30
    features: str = "standardized"

    def __post_init__(self):
        require_type("iforest.n_trees", self.n_trees, Integral)
        require_type("iforest.subsample_size", self.subsample_size, Integral)
        require_type("iforest.contamination", self.contamination, Real)
        if self.features not in FEATURE_CHOICES:
            raise ParameterError(f"bad iforest.features: {self.features!r}")
        if not 0.0 < self.contamination < 1.0:
            raise ParameterError(
                f"iforest.contamination must be in (0, 1), got {self.contamination}")
        if self.n_trees < 1 or self.subsample_size < 2:
            raise ParameterError("bad iforest tree settings")


@dataclass(frozen=True)
class ChParams:
    include_outliers: bool = False
    features: str = "standardized"

    def __post_init__(self):
        require_type("calinski_harabasz.include_outliers", self.include_outliers, bool)
        if self.features not in FEATURE_CHOICES:
            raise ParameterError(f"bad calinski_harabasz.features: {self.features!r}")


@dataclass
class PipelineConfig:
    """The YAML config: one field per top-level key, and one params class
    per nested section (cpf, iforest, calinski_harabasz)."""
    input: str
    output_dir: str = "out"
    bdl_policy: str = "half_dl"
    scaling: str = "zscore"
    geo_metric: str = "haversine"
    cpf: CpfParams = field(default_factory=CpfParams)
    iforest: IforestParams = field(default_factory=IforestParams)
    calinski_harabasz: ChParams = field(default_factory=ChParams)
    log10_export: bool = True
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        raw = dict(raw)
        if "input" not in raw:
            raise ParameterError("config is missing the required key: input")
        sections = {f.name: f.default_factory for f in fields(cls)
                    if f.default_factory is not MISSING}
        for name, params in sections.items():
            section = raw.setdefault(name, {})
            if not isinstance(section, dict):
                raise ParameterError(f"config section {name} must be a mapping, got {section!r}")
            unknown = sorted(set(section) - {f.name for f in fields(params)}, key=str)
            if unknown:
                raise ParameterError(f"unknown config keys in {name}: {unknown}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)}, key=str)
        if unknown:
            raise ParameterError(f"unknown config keys: {unknown}")
        raw.update((name, params(**raw[name])) for name, params in sections.items())
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())
            raise ParameterError(f"config file {path} is not valid YAML: {detail}") from exc
        if not isinstance(raw, dict):
            raise ParameterError(f"config file {path} is not a mapping")
        return cls.from_dict(raw)

    def validate(self) -> None:
        """Check the top-level settings; each section checks itself."""
        for key in ("input", "output_dir"):
            if not isinstance(getattr(self, key), str):
                raise ParameterError(f"{key} must be a path string, got {getattr(self, key)!r}")
        require_type("log10_export", self.log10_export, bool)
        if not Path(self.input).exists():
            raise ParameterError(f"input file does not exist: {self.input!r}")
        if self.bdl_policy not in ("half_dl", "reject"):
            raise ParameterError(f"bad bdl_policy: {self.bdl_policy!r}")
        if self.scaling not in ("zscore", "none"):
            raise ParameterError(f"bad scaling: {self.scaling!r}")
        if self.geo_metric not in GEO_METRICS:
            raise ParameterError(f"bad geo_metric: {self.geo_metric!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        """The config as from_dict reads it, cpf.min_component_size resolved."""
        raw = asdict(self)
        raw["cpf"]["min_component_size"] = self.cpf.component_size_floor
        return raw

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


def _write_csv(path, header, rows) -> Path:
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return Path(path)


def project_wgs84(table: ingest.SampleTable) -> np.ndarray:
    """(n, 2) WGS84 latitude and longitude of each site."""
    return np.array([geodesy.itm_to_wgs84(e, n) for e, n in table.itm.tolist()])


def geo_graph(config: PipelineConfig, itm, latlon) -> graph.SparseAdjacency:
    """Geographic mutual kNN graph: over ITM meters under euclidean_itm,
    otherwise over (lat, lon), by haversine or plain euclidean degrees."""
    k = config.cpf.min_samples
    if config.geo_metric == "euclidean_itm":
        return graph.mutual_knn_graph(itm, k=k, metric="euclidean")
    metric = "haversine" if config.geo_metric == "haversine" else "euclidean"
    return graph.mutual_knn_graph(latlon, k=k, metric=metric)


def feature_matrices(config: PipelineConfig, table: ingest.SampleTable) -> dict:
    """The (n, 15) concentrations by FEATURE_CHOICES name: "raw", and
    "standardized" under config.scaling."""
    raw = table.concentrations
    return {"raw": raw, "standardized": ingest.standardize(raw, method=config.scaling)[0]}


def refine(config: PipelineConfig, features: np.ndarray, labels: np.ndarray):
    """Isolation Forest scores and flags for the outlier set; NaN and False
    elsewhere, and everywhere when there are fewer than two outliers."""
    outlier_idx = np.flatnonzero(labels == cpf.OUTLIER)
    scores = np.full(labels.size, np.nan)
    flags = np.zeros(labels.size, dtype=bool)
    if outlier_idx.size >= 2:
        subset = features[outlier_idx]
        model = iforest.fit_iforest(
            subset, n_trees=config.iforest.n_trees,
            subsample_size=config.iforest.subsample_size, seed=config.seed)
        scores[outlier_idx] = iforest.anomaly_scores(model, subset)
        flags[outlier_idx] = iforest.flag_outliers(scores[outlier_idx],
                                                   config.iforest.contamination)
    return scores, flags


def labeling_columns(site_ids, result: cpf.FitResult) -> dict:
    """A fit's labeling.csv columns, keyed as read_labeling returns them."""
    return {"site_ids": site_ids, "labels": result.labeling.labels,
            "log_density": result.density.log_density, "omega": result.big_brother.omega,
            "component_id": result.components.labels}


def write_samples(table: ingest.SampleTable, path) -> Path:
    rows = ([sid, *xy, *conc] for sid, xy, conc in
            zip(table.site_ids, table.itm.tolist(), table.concentrations.tolist()))
    return _write_csv(path, ["site_id", "easting", "northing", *ingest.ELEMENTS], rows)


def write_coords(site_ids, latlon: np.ndarray, path) -> Path:
    rows = ([sid, *ll] for sid, ll in zip(site_ids, latlon.tolist()))
    return _write_csv(path, ["site_id", "latitude", "longitude"], rows)


def _read_columns(path, cells: dict, optional: dict | None = None) -> dict:
    """Parse CSV columns: cells maps each output key to its (column, parser);
    the optional cells are read too once any of their columns is present.
    A missing column, a bad or missing cell or non-UTF-8 text raises
    DataError naming the file and the column or line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            header = reader.fieldnames or []
            cells = dict(cells)
            if optional and any(col in header for col, _ in optional.values()):
                cells.update(optional)
            missing = [col for col, _ in cells.values() if col not in header]
            if missing:
                raise DataError(f"{path}: missing column {missing[0]}")
            columns = {key: [] for key in cells}
            for row in reader:
                for key, (col, parse) in cells.items():
                    try:
                        columns[key].append(parse(row[col]))
                    except ValueError as exc:
                        raise DataError(f"{path}: line {reader.line_num}: "
                                        f"bad {col} value {row[col]!r}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    return columns


def _read_coords(path) -> np.ndarray:
    cols = _read_columns(path, {"lat": ("latitude", float), "lon": ("longitude", float)})
    return np.column_stack([cols["lat"], cols["lon"]])


def write_labeling(lab: dict, path) -> Path:
    """Write labeling.csv; anomaly_score and iforest_flag are written once
    refine has added them to lab."""
    header = ["site_id", "cluster_label", "log_density", "omega", "component_id"]
    columns = [lab["site_ids"], *(lab[key].tolist() for key in
                                  ("labels", "log_density", "omega", "component_id"))]
    if "anomaly_score" in lab:
        header += ["anomaly_score", "iforest_flag"]
        columns += [["" if math.isnan(s) else s for s in lab["anomaly_score"].tolist()],
                    lab["iforest_flag"].tolist()]
    return _write_csv(path, header, zip(*columns))


def _flag(cell: str) -> bool:
    if cell not in ("True", "False"):
        raise ValueError(cell)
    return cell == "True"


_LABELING_CELLS = {
    "site_ids": ("site_id", str),
    "labels": ("cluster_label", int),
    "log_density": ("log_density", float),
    "omega": ("omega", float),
    "component_id": ("component_id", int),
}
_REFINE_CELLS = {
    "anomaly_score": ("anomaly_score", lambda cell: float(cell) if cell else math.nan),
    "iforest_flag": ("iforest_flag", _flag),
}


def read_labeling(path) -> dict:
    """labeling.csv's columns keyed as labeling_columns returns them, plus
    anomaly_score and iforest_flag once refine has written them."""
    cols = _read_columns(path, _LABELING_CELLS, optional=_REFINE_CELLS)
    return {key: values if key == "site_ids" else np.array(values)
            for key, values in cols.items()}


def write_summary(summary: metrics.ClusterSummary, path) -> Path:
    """Long-format per-cluster, per-element statistics CSV."""
    rows = []
    for scale, stats in (("raw", summary.stats), ("log10", summary.log10_stats)):
        for (c, element), s in sorted(stats.items()):
            for stat_name in ("size", "q1", "median", "q3", "iqr",
                              "whisker_low", "whisker_high"):
                rows.append([c, element, scale, stat_name, getattr(s, stat_name)])
    return _write_csv(path, ["cluster", "element", "scale", "statistic", "value"], rows)


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
    # json.dumps runs the C encoder; json.dump to a file never does.
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True))
    return path


def export_plot_data(summary: metrics.ClusterSummary, path) -> Path:
    """Box-plot reconstruction data: one row per (cluster, element, scale)."""
    rows = []
    for scale, stats in (("raw", summary.stats), ("log10", summary.log10_stats)):
        for (c, element), s in sorted(stats.items()):
            rows.append([
                c, element, scale, s.size, s.q1, s.median, s.q3,
                s.whisker_low, s.whisker_high,
                ";".join(_fmt(v) for v in s.outlier_values),
            ])
    return _write_csv(path, ["cluster", "element", "scale", "size", "q1", "median", "q3",
                             "whisker_low", "whisker_high", "beyond_whiskers"], rows)


def _export(config: PipelineConfig, lab: dict, latlon, summary,
            geojson_path=None) -> tuple[Path, Path]:
    geojson = export_geojson(
        lab["site_ids"], lab["labels"], latlon, lab["log_density"],
        geojson_path or config.path(FILES["geojson"]),
        scores=lab.get("anomaly_score"), flags=lab.get("iforest_flag"))
    return geojson, export_plot_data(summary, config.path(FILES["plot_data"]))


# ---------------------------------------------------------------- stages

def stage_ingest(config: PipelineConfig, in_path=None, out_path=None) -> Path:
    """Parse the raw survey CSV and write the normalized sample table."""
    table = ingest.parse_g5_csv(in_path or config.input, bdl_policy=config.bdl_policy)
    return write_samples(table, out_path or config.path(FILES["samples"]))


def stage_project(config: PipelineConfig, in_path=None, out_path=None) -> Path:
    """Convert ITM coordinates to WGS84 and write site_id, lat, lon."""
    table = ingest.parse_g5_csv(in_path or config.path(FILES["samples"]))
    return write_coords(table.site_ids, project_wgs84(table),
                        out_path or config.path(FILES["coords"]))


def stage_graph(config: PipelineConfig, in_path=None, out_path=None) -> Path:
    """Build the geographic mutual kNN graph and dump it in binary form. The
    input is the sample table under euclidean_itm, otherwise coords.csv."""
    itm = latlon = None
    if config.geo_metric == "euclidean_itm":
        itm = ingest.parse_g5_csv(in_path or config.path(FILES["samples"])).itm
    else:
        latlon = _read_coords(in_path or config.path(FILES["coords"]))
    out = Path(out_path or config.path(FILES["adjacency"]))
    graph.dump_adjacency(geo_graph(config, itm, latlon), out)
    return out


def stage_cluster(config: PipelineConfig, samples_path=None, adjacency_path=None,
                  out_path=None) -> Path:
    """Run spatial-CPF and write the labeling CSV."""
    table = ingest.parse_g5_csv(samples_path or config.path(FILES["samples"]))
    adj = graph.load_adjacency(adjacency_path or config.path(FILES["adjacency"]))
    result = cpf.fit(feature_matrices(config, table)["standardized"], adj, config.cpf)
    return write_labeling(labeling_columns(table.site_ids, result),
                          out_path or config.path(FILES["labeling"]))


def stage_refine(config: PipelineConfig, samples_path=None, labeling_path=None,
                 out_path=None) -> Path:
    """Score the outlier set with an Isolation Forest and append columns."""
    table = ingest.parse_g5_csv(samples_path or config.path(FILES["samples"]))
    lab_path = labeling_path or config.path(FILES["labeling"])
    lab = read_labeling(lab_path)
    features = feature_matrices(config, table)[config.iforest.features]
    lab["anomaly_score"], lab["iforest_flag"] = refine(config, features, lab["labels"])
    return write_labeling(lab, out_path or lab_path)


def stage_summarize(config: PipelineConfig, samples_path=None, labeling_path=None,
                    out_path=None) -> Path:
    """Write the long-format per-cluster, per-element statistics CSV."""
    table = ingest.parse_g5_csv(samples_path or config.path(FILES["samples"]))
    lab = read_labeling(labeling_path or config.path(FILES["labeling"]))
    labeling = cpf.ClusterLabeling(labels=lab["labels"])
    summary = metrics.cluster_summary(table, labeling, log10_export=config.log10_export)
    return write_summary(summary, out_path or config.path(FILES["summary"]))


def stage_export(config: PipelineConfig, samples_path=None, coords_path=None,
                 labeling_path=None, out_path=None) -> tuple[Path, Path]:
    """Write the GeoJSON (to out_path if given) and plot-data exports from
    existing intermediates; plot_data.csv always goes under output_dir."""
    table = ingest.parse_g5_csv(samples_path or config.path(FILES["samples"]))
    latlon = _read_coords(coords_path or config.path(FILES["coords"]))
    lab = read_labeling(labeling_path or config.path(FILES["labeling"]))
    labeling = cpf.ClusterLabeling(labels=lab["labels"])
    summary = metrics.cluster_summary(table, labeling, log10_export=config.log10_export)
    return _export(config, lab, latlon, summary, out_path)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage in memory, writing each artifact once; abort (removing
    this run's outputs) on error.

    Returns the run report, which is also written to report.json.
    """
    written: list[Path] = []
    timings: dict[str, float] = {}

    @contextmanager
    def stage(name, *outputs):
        written.extend(config.path(FILES[key]) for key in outputs)
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            for p in written:
                p.unlink(missing_ok=True)
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start

    with stage("ingest", "samples"):
        table = ingest.parse_g5_csv(config.input, bdl_policy=config.bdl_policy)
        write_samples(table, config.path(FILES["samples"]))
    with stage("project", "coords"):
        latlon = project_wgs84(table)
        write_coords(table.site_ids, latlon, config.path(FILES["coords"]))
    with stage("graph", "adjacency"):
        adj = geo_graph(config, table.itm, latlon)
        graph.dump_adjacency(adj, config.path(FILES["adjacency"]))
    with stage("cluster"):
        features = feature_matrices(config, table)
        result = cpf.fit(features["standardized"], adj, config.cpf)
    with stage("refine", "labeling"):
        lab = labeling_columns(table.site_ids, result)
        lab["anomaly_score"], lab["iforest_flag"] = refine(
            config, features[config.iforest.features], lab["labels"])
        write_labeling(lab, config.path(FILES["labeling"]))
    with stage("summarize", "summary"):
        summary = metrics.cluster_summary(table, result.labeling,
                                          log10_export=config.log10_export)
        write_summary(summary, config.path(FILES["summary"]))
    with stage("export", "geojson", "plot_data"):
        _export(config, lab, latlon, summary)

    labeling = result.labeling
    sizes = result.components.component_sizes.values()
    try:
        ch = metrics.calinski_harabasz(features[config.calinski_harabasz.features], labeling,
                                       include_outliers=config.calinski_harabasz.include_outliers)
    except ParameterError:
        ch = None
    report = {
        "n_samples": table.n,
        "n_clusters": labeling.n_clusters,
        "cluster_sizes": labeling.cluster_sizes(),
        "n_outliers": labeling.n_outliers,
        "calinski_harabasz": ch if ch is None or math.isfinite(ch) else "inf",
        "n_flagged": int(np.sum(lab["iforest_flag"])),
        "intersected_edges": result.intersected.n_edges,
        "n_components": result.components.n_components,
        "largest_component": max(sizes),
        "n_stranded": sum(s for s in sizes if s < config.cpf.component_size_floor),
        "stage_seconds": {k: round(v, 4) for k, v in timings.items()},
        "config": config.to_dict(),
        "seed": config.seed,
    }
    with atomic_open(config.path(FILES["report"]), encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
