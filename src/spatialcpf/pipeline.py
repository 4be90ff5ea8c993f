"""Pipeline orchestration: config parsing, the stage chain, and exports.

STAGES declares each stage of ingest -> project -> graph -> cluster ->
refine -> summarize -> export once: the artifacts --in overrides, the
artifacts it writes and its function on a run's store of artifacts. One
runner serves both entries. run_pipeline runs every stage on one store, so
each result passes to the next in memory and each artifact is written once.
run_stage runs a single stage; the store reads its inputs from their files
through each artifact's one reader, so running the stages one at a time
gives byte-identical exports. Floats are written with repr() (shortest
round-trip form), so the CSV intermediates are lossless.
"""

from __future__ import annotations

import csv
import json
import math
import resource
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, NamedTuple

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

# A run whose share of outlier samples exceeds this warns of a degenerate result.
DEGENERATE_OUTLIER_FRACTION = 0.5


def _write_csv(path, header, rows) -> Path:
    """Write rows of Python scalars; csv writes a float as its repr()."""
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


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
    """labeling.csv's columns keyed as the cluster stage stores them, plus
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
                ";".join(map(repr, s.outlier_values)),
            ])
    return _write_csv(path, ["cluster", "element", "scale", "size", "q1", "median", "q3",
                             "whisker_low", "whisker_high", "beyond_whiskers"], rows)


# ---------------------------------------------------------------- stages

class _Store(dict):
    """One run's artifacts by FILES key, plus "features" and "fit". A value
    no stage of the run has produced comes from _SOURCES on first use: an
    artifact is read from the path passed for it, else from output_dir."""

    def __init__(self, config: PipelineConfig, paths=None, out=None):
        super().__init__()
        self.config, self.paths, self.out = config, paths or {}, out or {}

    def path(self, key) -> Path:
        return Path(self.paths.get(key) or self.config.path(FILES[key]))

    def __missing__(self, key):
        value = self[key] = _SOURCES[key](self)
        return value


# How the store gets a value that no stage of the run has produced.
_SOURCES = {
    "samples": lambda s: ingest.parse_g5_csv(s.path("samples")),
    "coords": lambda s: _read_coords(s.path("coords")),
    "adjacency": lambda s: graph.load_adjacency(s.path("adjacency")),
    "labeling": lambda s: read_labeling(s.path("labeling")),
    # The (n, 15) concentrations by FEATURE_CHOICES name.
    "features": lambda s: {"raw": s["samples"].concentrations,
                           "standardized": ingest.standardize(s["samples"].concentrations,
                                                              method=s.config.scaling)[0]},
    "summary": lambda s: metrics.cluster_summary(
        s["samples"], cpf.ClusterLabeling(labels=s["labeling"]["labels"]),
        log10_export=s.config.log10_export),
}

# Each artifact's one writer, called with the store and the path.
_WRITERS = {
    "samples": lambda s, path: _write_csv(
        path, ["site_id", "easting", "northing", *ingest.ELEMENTS],
        zip(s["samples"].site_ids, *s["samples"].itm.T.tolist(),
            *s["samples"].concentrations.T.tolist())),
    "coords": lambda s, path: _write_csv(path, ["site_id", "latitude", "longitude"],
                                         zip(s["samples"].site_ids, *s["coords"].T.tolist())),
    "adjacency": lambda s, path: graph.dump_adjacency(s["adjacency"], path),
    "labeling": lambda s, path: write_labeling(s["labeling"], path),
    "summary": lambda s, path: write_summary(s["summary"], path),
    "geojson": lambda s, path: export_geojson(
        s["labeling"]["site_ids"], s["labeling"]["labels"], s["coords"],
        s["labeling"]["log_density"], path, scores=s["labeling"].get("anomaly_score"),
        flags=s["labeling"].get("iforest_flag")),
    "plot_data": lambda s, path: export_plot_data(s["summary"], path),
}


def _ingest(s: _Store) -> None:
    s["samples"] = ingest.parse_g5_csv(s.paths.get("input") or s.config.input,
                                       bdl_policy=s.config.bdl_policy)


def _project(s: _Store) -> None:
    """WGS84 (latitude, longitude) of each site."""
    s["coords"] = np.array([geodesy.itm_to_wgs84(e, n) for e, n in s["samples"].itm.tolist()])


def _graph(s: _Store) -> None:
    """Geographic mutual kNN graph: over ITM meters under euclidean_itm,
    otherwise over (lat, lon), by haversine or plain euclidean degrees."""
    points = s["samples"].itm if s.config.geo_metric == "euclidean_itm" else s["coords"]
    metric = "haversine" if s.config.geo_metric == "haversine" else "euclidean"
    s["adjacency"] = graph.mutual_knn_graph(points, k=s.config.cpf.min_samples, metric=metric)


def _cluster(s: _Store) -> None:
    fit = s["fit"] = cpf.fit(s["features"]["standardized"], s["adjacency"], s.config.cpf)
    s["labeling"] = {"site_ids": s["samples"].site_ids, "labels": fit.labeling.labels,
                     "log_density": fit.density.log_density, "omega": fit.big_brother.omega,
                     "component_id": fit.components.labels}


def _refine(s: _Store) -> None:
    """Isolation Forest scores and flags for the outlier set; NaN and False
    elsewhere, and everywhere when there are fewer than two outliers."""
    params = s.config.iforest
    features, lab = s["features"][params.features], s["labeling"]
    outlier_idx = np.flatnonzero(lab["labels"] == cpf.OUTLIER)
    scores = lab["anomaly_score"] = np.full(lab["labels"].size, np.nan)
    flags = lab["iforest_flag"] = np.zeros(lab["labels"].size, dtype=bool)
    if outlier_idx.size >= 2:
        subset = features[outlier_idx]
        model = iforest.fit_iforest(subset, n_trees=params.n_trees,
                                    subsample_size=params.subsample_size, seed=s.config.seed)
        scores[outlier_idx] = iforest.anomaly_scores(model, subset)
        flags[outlier_idx] = iforest.flag_outliers(scores[outlier_idx], params.contamination)


class Stage(NamedTuple):
    """One step of the chain: the artifacts --in overrides, the artifacts it
    writes (--out overrides the first) and its function on the store. A
    stage without one writes values the store derives (the summary)."""
    inputs: tuple
    outputs: tuple
    run: Callable[[_Store], None] | None = None


STAGES = {
    # "input" is the raw survey CSV, the config's input by default.
    "ingest": Stage(("input",), ("samples",), _ingest),
    "project": Stage(("samples",), ("coords",), _project),
    # --in is whichever one geo_metric reads: samples under euclidean_itm, else coords.
    "graph": Stage(("samples", "coords"), ("adjacency",), _graph),
    "cluster": Stage(("samples",), ("labeling",), _cluster),
    "refine": Stage(("labeling",), ("labeling",), _refine),
    "summarize": Stage(("labeling",), ("summary",)),
    "export": Stage(("labeling",), ("geojson", "plot_data")),
}


def _run(s: _Store, names: list[str]) -> tuple[dict[str, float], list[Path], list[str]]:
    """Run the named stages in order on s; return each one's seconds, the
    files written and the Python warnings the stages raised, each message
    once. A stage writes the outputs that no later stage in names rewrites,
    to the --out path if given, else where they are read. On an error the
    files this run wrote are removed, and StageError names the stage."""
    written, seconds = [], {}
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        for i, name in enumerate(names):
            stage, start = STAGES[name], time.perf_counter()
            rewritten = {key for later in names[i + 1:] for key in STAGES[later].outputs}
            try:
                if stage.run:
                    stage.run(s)
                for key in stage.outputs:
                    if key not in rewritten:
                        path = Path(s.out.get(key) or s.path(key))
                        _WRITERS[key](s, path)
                        written.append(path)
            except Exception as exc:
                for path in written:
                    path.unlink(missing_ok=True)
                raise StageError(name, exc) from exc
            seconds[name] = time.perf_counter() - start
    return seconds, written, list(dict.fromkeys(str(w.message) for w in raised))


def run_stage(name: str, config: PipelineConfig, in_path=None, out_path=None, *,
              messages: list | None = None, **paths):
    """Run one stage alone and return the path it wrote (a tuple for export).
    in_path overrides the stage's inputs, out_path its first output, and an
    <artifact>_path keyword that artifact's file; refine rewrites the labeling
    file it read. The Python warnings the stage raises, each message once, are
    appended to messages when it is given, else issued again. An error is
    raised as is, after this stage's writes are removed."""
    stage = STAGES[name]
    paths = {key.removesuffix("_path"): p for key, p in paths.items() if p}
    if in_path:
        paths.update(dict.fromkeys(stage.inputs, in_path))
    try:
        _, written, raised = _run(_Store(config, paths, out={stage.outputs[0]: out_path}),
                                  [name])
    except StageError as exc:
        raise exc.cause
    if messages is None:
        for message in raised:
            warnings.warn(message, stacklevel=2)
    else:
        messages.extend(raised)
    return tuple(written) if len(written) > 1 else written[0]


stage_ingest = partial(run_stage, "ingest")
stage_project = partial(run_stage, "project")
stage_graph = partial(run_stage, "graph")
stage_cluster = partial(run_stage, "cluster")
stage_refine = partial(run_stage, "refine")
stage_summarize = partial(run_stage, "summarize")
stage_export = partial(run_stage, "export")


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage on one store, writing each artifact once; abort
    (removing this run's outputs) on error.

    Returns the run report, which is also written to report.json. Its
    warnings are those the stages raised, each once, then a degenerate
    result's; fit_seconds times each phase of cpf.fit, and peak_rss_mib is
    the process's peak resident set size so far.
    """
    s = _Store(config)
    seconds, _, messages = _run(s, list(STAGES))
    n, fit = s["samples"].n, s["fit"]
    labeling, sizes = fit.labeling, fit.components.component_sizes.values()
    try:
        ch = metrics.calinski_harabasz(s["features"][config.calinski_harabasz.features], labeling,
                                       include_outliers=config.calinski_harabasz.include_outliers)
    except ParameterError:
        ch = None
    if labeling.n_outliers > DEGENERATE_OUTLIER_FRACTION * n:
        messages.append(f"{labeling.n_outliers / n:.0%} of samples ({labeling.n_outliers} of {n}) "
                        f"are outliers, above the degenerate-result threshold of "
                        f"{DEGENERATE_OUTLIER_FRACTION:.0%}")
    report = {
        "n_samples": n,
        "n_clusters": labeling.n_clusters,
        "cluster_sizes": labeling.cluster_sizes(),
        "n_outliers": labeling.n_outliers,
        "calinski_harabasz": ch if ch is None or math.isfinite(ch) else "inf",
        "n_flagged": int(np.sum(s["labeling"]["iforest_flag"])),
        "intersected_edges": fit.intersected.n_edges,
        "n_components": fit.components.n_components,
        "largest_component": max(sizes),
        "n_stranded": sum(size for size in sizes if size < config.cpf.component_size_floor),
        "stage_seconds": {k: round(v, 4) for k, v in seconds.items()},
        "fit_seconds": {k: round(v, 4) for k, v in fit.seconds.items()},
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "warnings": messages,
        "config": config.to_dict(),
        "seed": config.seed,
    }
    with atomic_open(config.path(FILES["report"]), encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
