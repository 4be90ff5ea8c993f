"""Pipeline orchestration: config parsing, the stage chain, and exports.

ARTIFACTS declares each file of a run once: its name, its one reader and
its one writer. STAGES declares each stage of ingest -> project -> graph ->
cluster -> refine -> summarize -> export once: the artifacts --in
overrides, the artifacts it writes and its function on a run's store of
artifacts. One runner serves both entries. run_pipeline runs every stage
on one store, so each result passes to the next in memory and each
artifact is written once. run_stage runs a single stage; the store reads
its inputs from their files through their ARTIFACTS readers, so running
the stages one at a time gives byte-identical exports. The cluster stage
takes the report's graph and fit figures as it ends, the one stage that
holds the fit, and drops the geographic graph, which no later stage reads;
run_pipeline adds its own figures to them. Floats are written
with repr() (shortest round-trip form), so the CSV intermediates are
lossless; samples.csv keeps the survey's own text of a number where that
reads back as its value. The staged CSV files are read by columns through
fileio.read_csv (_read_columns).

The ingest stage writes samples.csv as it parses the survey, from the text
of each chunk ingest accepts (_ingest). Every other writer works on
columns, _ROWS rows or features at a time: a numeric column's cells are
formatted by one map over its values (_reprs, one spelling of the
non-finite floats for CSV and one for JSON). Each CSV row is its cells
joined by commas (_write_rows). A text cell is quoted as csv.writer quotes
it, and also when it holds a CR, so that any site id the survey CSV can
hold reads back unchanged (_quote).
"""

from __future__ import annotations

import gc
import json
import json.encoder
import math
import re
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from itertools import chain
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import cpf, geodesy, graph, iforest, ingest, metrics
from .cpf import CpfParams
from .errors import (DataError, ParameterError, SpatialCpfError, check_settings,
                     setting)
from .fileio import atomic_open, read_csv


class StageError(SpatialCpfError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


FEATURE_CHOICES = ("standardized", "raw")


@dataclass(frozen=True)
class IforestParams:
    n_trees: int = setting(100, Integral, lambda v: v >= 1, ">= 1")
    subsample_size: int = setting(256, Integral, lambda v: v >= 2, ">= 2")
    contamination: float = setting(0.30, Real, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    features: str = setting("standardized", str, FEATURE_CHOICES)

    def __post_init__(self):
        check_settings(self, "iforest.")


@dataclass(frozen=True)
class ChParams:
    include_outliers: bool = setting(False, bool)
    features: str = setting("standardized", str, FEATURE_CHOICES)

    def __post_init__(self):
        check_settings(self, "calinski_harabasz.")


@dataclass
class PipelineConfig:
    """The YAML config: one field per top-level key, and one params class
    per nested section (cpf, iforest, calinski_harabasz)."""
    input: str = setting(MISSING, str, lambda path: Path(path).is_file(), "an existing file")
    # A directory the run can make its files in: no file on its path.
    output_dir: str = setting("out", str, lambda path: not any(
        part.exists() and not part.is_dir() for part in (Path(path), *Path(path).parents)),
        "a directory path that names no existing file")
    bdl_policy: str = setting("half_dl", str, ("half_dl", "reject"))
    scaling: str = setting("zscore", str, ("zscore", "none"))
    geo_metric: str = setting("haversine", str, ("haversine", "euclidean_degrees", "euclidean_itm"))
    cpf: CpfParams = setting(CpfParams, CpfParams)
    iforest: IforestParams = setting(IforestParams, IforestParams)
    calinski_harabasz: ChParams = setting(ChParams, ChParams)
    log10_export: bool = setting(True, bool)
    seed: int = setting(0, Integral, lambda v: type(v) is int and v >= 0,
                        "a non-negative integer")

    def __post_init__(self):
        check_settings(self)

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
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            # From bytes, so yaml decodes the text and names bytes it cannot decode.
            raw = yaml.safe_load(Path(path).read_bytes())
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())
            raise ParameterError(f"config file {path} is not valid YAML: {detail}") from exc
        if not isinstance(raw, dict):
            raise ParameterError(f"config file {path} is not a mapping")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """The config as from_dict reads it, cpf.min_component_size resolved."""
        raw = asdict(self)
        raw["cpf"]["min_component_size"] = self.cpf.component_size_floor
        return raw

    # Default intermediate/export file locations under output_dir.
    def path(self, name: str) -> Path:
        return Path(self.output_dir) / name


# A run whose share of outlier samples exceeds this warns of a degenerate result.
DEGENERATE_OUTLIER_FRACTION = 0.5
# Rows (or GeoJSON features) each writer formats at a time; bounds its text.
_ROWS = 1024
# The characters that make a CSV cell quoted (see _quote).
_QUOTED = re.compile('[,"\r\n]')


# How _reprs spells a non-finite float: in a CSV cell a NaN (an anomaly
# score off the outlier set) is empty; in JSON each is as json.dumps spells
# it (export_geojson writes a NaN score as null).
_CSV = {"nan": ""}
_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray, spelling: dict) -> list[str]:
    """repr() of each value of a numeric array: a float's shortest text that
    reads back as the same float, an integer's or flag's the same as str().
    A non-finite float's text is looked up in spelling."""
    cells = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        cells = list(map(spelling.get, cells, cells))
    return cells


def _quote(column) -> list[str]:
    """str() of each value, as CSV fields. A cell holding a comma, quote, CR
    or LF is quoted, its quotes doubled, as csv.writer quotes; csv.writer
    would leave a CR bare when lines end in LF, and the row would split on
    reading."""
    cells = list(map(str, column))
    if not _QUOTED.search("".join(cells)):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if _QUOTED.search(cell) else cell
            for cell in cells]


def _write_rows(fh, columns) -> None:
    """Write the rows of the equal-length columns of CSV cells, each one
    line of its cells joined by commas."""
    fh.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


def _write_csv(path, header, columns) -> Path:
    """Write the header and the equal-length columns, _ROWS rows at a time:
    an array's cells by _reprs, any other column's (text or Python numbers)
    by _quote, and the rows by _write_rows."""
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROWS):
            _write_rows(fh, [_reprs(column[start:start + _ROWS], _CSV)
                             if isinstance(column, np.ndarray)
                             else _quote(column[start:start + _ROWS]) for column in columns])
    return Path(path)


def _read_columns(path, cells: dict) -> dict:
    """Parse CSV columns: cells maps each output key to its (column, parser).
    A parser maps a chunk's cells of its column to values, raising ValueError
    or KeyError on a bad cell. A short row's missing cells read as "", and a
    column named twice is read from the last. A missing column or a bad cell
    raises DataError naming the file and the column, or the line and the
    first bad cell in (line, key) order (see fileio.read_csv)."""

    def parse(header, chunks) -> dict:
        index = {name: i for i, name in enumerate(header or [])}
        missing = [col for col, _ in cells.values() if col not in index]
        if missing:
            raise DataError(f"{path}: missing column {missing[0]}")
        width = max(index[col] for col, _ in cells.values()) + 1
        columns = {key: [] for key in cells}
        for line, rows in chunks:
            if min(map(len, rows)) < width:
                rows = [row + [""] * (width - len(row)) for row in rows]
            transposed = list(zip(*rows))
            for key, (col, parse_cells) in cells.items():
                try:
                    columns[key] += parse_cells(transposed[index[col]])
                except (ValueError, KeyError):
                    raise DataError(f"{path}: line {line}: bad {col} value "
                                    f"{transposed[index[col]][0]!r}") from None
        return columns

    return read_csv(path, parse)


def _floats(cells, ok=np.isfinite) -> list[float]:
    """float() of each cell, each value passing the numpy test ok: finite by
    default, since GeoJSON has no NaN or infinity."""
    values = list(map(float, cells))
    if not ok(np.array(values)).all():
        raise ValueError(cells)
    return values


def _scores(cells) -> list[float]:
    """Empty (NaN) for a sample refine has not scored; any other score is
    exported, so it must be finite."""
    values = list(map(float, map({"": "nan"}.get, cells, cells)))
    if np.isfinite(values).sum() + cells.count("") < len(cells):
        raise ValueError(cells)
    return values


def _read_coords(path) -> tuple[np.ndarray, list[str]]:
    """coords.csv's (latitude, longitude) rows and its site_id column."""
    cols = _read_columns(path, {
        "site_ids": ("site_id", list),
        "lat": ("latitude", partial(_floats, ok=lambda v: np.abs(v) <= 90)),
        "lon": ("longitude", partial(_floats, ok=lambda v: np.abs(v) <= 180))})
    return np.column_stack([cols["lat"], cols["lon"]]), cols["site_ids"]


# labeling.csv's columns in file order, by the key each is stored under.
_LABELING_CELLS = {
    "site_ids": ("site_id", list),
    "labels": ("cluster_label", partial(map, int)),
    "log_density": ("log_density", _floats),
    # +inf marks a component's peak.
    "omega": ("omega", partial(_floats, ok=lambda v: v >= 0)),
    "component_id": ("component_id", partial(map, int)),
    "anomaly_score": ("anomaly_score", _scores),
    "iforest_flag": ("iforest_flag", partial(map, {"True": True, "False": False}.__getitem__)),
}


def write_labeling(lab: dict, path) -> Path:
    """Write labeling.csv: the _LABELING_CELLS columns of lab, in order."""
    return _write_csv(path, [col for col, _ in _LABELING_CELLS.values()],
                      [lab[key] for key in _LABELING_CELLS])


def read_labeling(path) -> dict:
    """labeling.csv's _LABELING_CELLS columns keyed as the cluster stage
    stores them; a file missing any of them raises DataError naming the
    first missing. A cluster label or component id out of range for the row
    count raises DataError naming the row."""
    cols = _read_columns(path, _LABELING_CELLS)
    n = len(cols["site_ids"])
    lab = {key: values if key == "site_ids" else np.array(values)
           for key, values in cols.items()}
    for key, low in (("labels", cpf.OUTLIER), ("component_id", 0)):
        outside = np.flatnonzero((lab[key] < low) | (lab[key] >= n))
        if outside.size:
            row = outside[0]
            raise DataError(f"{path}: row {row + 1}: {_LABELING_CELLS[key][0]} "
                            f"{cols[key][row]} is outside [{low}, {n})")
    return lab


def write_summary(summary: metrics.ClusterSummary, path) -> Path:
    """Long-format statistics CSV: one line per statistic, in STATISTICS
    order, of each summary row in its order."""
    per_row = len(metrics.STATISTICS)
    # Python numbers, so that a size reads "60" among the floats.
    values = zip(*(summary.stats[name].tolist() for name in metrics.STATISTICS))
    return _write_csv(path, ["cluster", "element", "scale", "statistic", "value"],
                      [np.repeat(summary.cluster, per_row),
                       np.repeat(summary.element, per_row).tolist(),
                       np.repeat(summary.scale, per_row).tolist(),
                       list(metrics.STATISTICS) * len(summary.element),
                       list(chain.from_iterable(values))])


# One feature as json.dumps(feature, separators=(",", ":"), sort_keys=True)
# writes it, from its longitude, latitude, anomaly_score, cluster,
# iforest_flag, log_density and site_id.
_FEATURE = ('{"geometry":{"coordinates":[%s,%s],"type":"Point"},"properties":{"anomaly_score":'
            '%s,"cluster":%s,"iforest_flag":%s,"log_density":%s,"site_id":%s},"type":"Feature"}')


def export_geojson(lab: dict, coords: np.ndarray, path) -> Path:
    """GeoJSON FeatureCollection of one Point feature per row of the
    labeling columns lab (keyed as read_labeling keys them) at the
    (latitude, longitude) rows of coords, in (lon, lat) order, written as
    json.dumps(doc, separators=(",", ":"), sort_keys=True) would write it,
    _ROWS features at a time. Each feature fills the _FEATURE template: site
    ids JSON-escaped to ASCII, floats by _reprs in the _JSON spelling, and a
    NaN score (a sample refine has not scored) as null."""
    site_ids = lab["site_ids"]
    with atomic_open(path, encoding="utf-8") as fh:
        # The document's two keys, sorted, around the features.
        fh.write('{"features":[')
        for start in range(0, len(site_ids), _ROWS):
            chunk = slice(start, start + _ROWS)
            features = zip(
                _reprs(coords[chunk, 1], _JSON), _reprs(coords[chunk, 0], _JSON),
                _reprs(lab["anomaly_score"][chunk], _JSON | {"nan": "null"}),
                _reprs(lab["labels"][chunk], _JSON),
                map(("false", "true").__getitem__, lab["iforest_flag"][chunk].tolist()),
                _reprs(lab["log_density"][chunk], _JSON),
                map(json.encoder.encode_basestring_ascii, site_ids[chunk]))
            fh.write(("," if start else "") + ",".join(map(_FEATURE.__mod__, features)))
        fh.write('],"type":"FeatureCollection"}')
    return Path(path)


def export_plot_data(summary: metrics.ClusterSummary, path) -> Path:
    """Box-plot reconstruction data: one line per summary row, in its order."""
    stats = ("size", "q1", "median", "q3", "whisker_low", "whisker_high")
    return _write_csv(path, ["cluster", "element", "scale", *stats, "beyond_whiskers"],
                      [summary.cluster, summary.element, summary.scale,
                       *map(summary.stats.get, stats),
                       [";".join(map(repr, beyond)) for beyond in summary.beyond_whiskers]])


# ---------------------------------------------------------------- stages

class Artifact(NamedTuple):
    """One file of a run: its name under output_dir, its reader (the value
    and the site_id column of its rows, or a graph's vertex count) and its
    one writer, called with the store and the path."""
    file: str
    read: Callable[[Path], tuple] | None = None
    write: Callable[[_Store, Path], Path] | None = None


# Every artifact of a run, by the key the store and the stages use. The
# ingest stage writes samples.csv itself, and _SOURCES parses it back;
# run_pipeline writes report.json. Readers and writers look the module's
# functions up when called, so a wrapper set on the module is called instead.
ARTIFACTS = {
    "samples": Artifact("samples.csv"),
    "coords": Artifact("coords.csv", lambda path: _read_coords(path),
                       lambda s, path: _write_csv(path, ["site_id", "latitude", "longitude"],
                                                  [s["samples"].site_ids, *s["coords"].T])),
    "adjacency": Artifact("geo_adjacency.bin",
                          lambda path: (adj := graph.load_adjacency(path), adj.n),
                          lambda s, path: graph.dump_adjacency(s["adjacency"], path)),
    "labeling": Artifact("labeling.csv",
                         lambda path: (lab := read_labeling(path), lab["site_ids"]),
                         lambda s, path: write_labeling(s["labeling"], path)),
    "summary": Artifact("summary.csv", write=lambda s, path: write_summary(s["summary"], path)),
    "plot_data": Artifact("plot_data.csv",
                          write=lambda s, path: export_plot_data(s["summary"], path)),
    "geojson": Artifact("clusters.geojson",
                        write=lambda s, path: export_geojson(s["labeling"], s["coords"], path)),
    "report": Artifact("report.json"),
}
FILES = {key: a.file for key, a in ARTIFACTS.items()}


class _Store(dict):
    """One run's artifacts by ARTIFACTS key, plus "features". A value no
    stage of the run has produced comes from _SOURCES, else from its
    artifact's reader, on first use; an artifact is read from the path passed
    for it, else from output_dir. An artifact read back must cover the sites
    of samples, row for row (a graph: as many vertices), or DataError names
    both files. written lists the files the run has written, write_seconds
    the seconds of each one's writing by artifact key, and report the
    figures the stages give the run report (cluster's graph and fit figures)."""

    def __init__(self, config: PipelineConfig, paths=None, out=None):
        super().__init__()
        self.config, self.paths, self.out = config, paths or {}, out or {}
        self.written, self.write_seconds, self.report = [], {}, {}

    def path(self, key) -> Path:
        return Path(self.paths.get(key) or self.config.path(ARTIFACTS[key].file))

    def output(self, key) -> Path:
        """Where the artifact is written: its --out path, else where it is read."""
        return Path(self.out.get(key) or self.path(key))

    def __missing__(self, key):
        if key in _SOURCES:
            value = self[key] = _SOURCES[key](self)
            return value
        path, where = self.path(key), self.path("samples")
        value, sites = ARTIFACTS[key].read(path)
        samples = self["samples"]
        size, ids = (sites, ()) if isinstance(sites, int) else (len(sites), sites)
        if size != samples.n:
            raise DataError(f"{path} has {size} sites, but {where} has {samples.n}")
        if ids and tuple(ids) != samples.site_ids:
            for row, (site, want) in enumerate(zip(ids, samples.site_ids), start=1):
                if site != want:
                    raise DataError(f"{path}: row {row} is site {site!r}, "
                                    f"but row {row} of {where} is {want!r}")
        self[key] = value
        return value


# How the store gets a value that no stage of the run has produced and no
# checked file gives: samples.csv's parse, the reference that every file read
# back is checked against, and the values derived from the others.
_SOURCES = {
    "samples": lambda s: ingest.parse_g5_csv(s.path("samples")),
    # The (n, 15) concentrations by FEATURE_CHOICES name.
    "features": lambda s: {"raw": s["samples"].concentrations,
                           "standardized": ingest.standardize(s["samples"].concentrations,
                                                              method=s.config.scaling)[0]},
    "summary": lambda s: metrics.cluster_summary(
        s["samples"], cpf.ClusterLabeling(labels=s["labeling"]["labels"]),
        log10_export=s.config.log10_export),
}


def _ingest(s: _Store) -> None:
    """Parse the survey and write samples.csv as the parse goes, one
    accepted chunk's text columns at a time (see ingest.parse_g5_csv):
    a number keeps the survey's own text where that reads as its value.
    Each parse starts the file over, so read_csv's one-row run after an
    error leaves no row written twice."""
    path, seconds = s.output("samples"), []
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        def start():
            fh.seek(0)
            fh.truncate()
            fh.write(",".join(["site_id", "easting", "northing", *ingest.ELEMENTS]) + "\n")
            return write

        def write(columns):
            began = time.perf_counter()
            _write_rows(fh, [_quote(columns[0]), *columns[1:]])
            seconds.append(time.perf_counter() - began)

        s["samples"] = ingest.parse_g5_csv(s.paths.get("input") or s.config.input,
                                           bdl_policy=s.config.bdl_policy, text=start)
    s.written.append(path)
    s.write_seconds["samples"] = sum(seconds)


def _project(s: _Store) -> None:
    """WGS84 (latitude, longitude) of each site."""
    s["coords"] = np.column_stack(geodesy.itm_to_wgs84(*s["samples"].itm.T))


def _graph(s: _Store) -> None:
    """Geographic mutual kNN graph: over ITM meters under euclidean_itm,
    otherwise over (lat, lon), by haversine or plain euclidean degrees."""
    points = s["samples"].itm if s.config.geo_metric == "euclidean_itm" else s["coords"]
    metric = "haversine" if s.config.geo_metric == "haversine" else "euclidean"
    s["adjacency"] = graph.mutual_knn_graph(points, k=s.config.cpf.min_samples, metric=metric)


def _cluster(s: _Store) -> None:
    """CPF on the standardized features within the geographic graph. The
    fit's labeling columns go to the store, every anomaly score NaN and flag
    False until refine; its graph and fit figures go to s.report, taken
    here, where the fit is held. No later stage reads the graph, so it
    leaves the store, and the fit ends with this stage."""
    fit = cpf.fit(s["features"]["standardized"], s["adjacency"], s.config.cpf)
    geo_edges = s.pop("adjacency").n_edges
    n, labeling = s["samples"].n, fit.labeling
    s["labeling"] = {"site_ids": s["samples"].site_ids, "labels": labeling.labels,
                     "log_density": fit.density.log_density, "omega": fit.big_brother.omega,
                     "component_id": fit.components.labels,
                     "anomaly_score": np.full(n, np.nan), "iforest_flag": np.zeros(n, bool)}
    sizes = fit.components.component_sizes.values()
    degree = np.bincount(fit.intersected.edges.ravel(), minlength=n)
    s.report.update({
        "n_clusters": labeling.n_clusters,
        "cluster_sizes": labeling.cluster_sizes(),
        "n_outliers": labeling.n_outliers,
        "geo_edges": geo_edges,
        "feature_edges": fit.feature_edges,
        "intersected_edges": fit.intersected.n_edges,
        "n_components": fit.components.n_components,
        "largest_component": max(sizes),
        # JSON object keys are strings.
        "component_size_histogram": {str(size): count
                                     for size, count in sorted(Counter(sizes).items())},
        "n_centers": int(fit.centers.size),
        "n_stranded": sum(size for size in sizes if size < s.config.cpf.component_size_floor),
        "geo_edges_kept_fraction": fit.intersected.n_edges / max(geo_edges, 1),
        "n_isolated": int(np.sum(degree == 0)),
        "intersected_degree_quartiles":
            cpf.sorted_quantiles(np.sort(degree), (0.25, 0.5, 0.75)).tolist(),
        "fit_seconds": {k: round(v, 4) for k, v in fit.seconds.items()},
        "fit_peak_rss_mib": {k: round(v, 1) for k, v in fit.peak_rss_mib.items()},
    })


def _refine(s: _Store) -> None:
    """Isolation Forest scores and flags for the outlier set; NaN and False
    elsewhere, and everywhere when there are fewer than two outliers. Both
    columns are made afresh, so no earlier score or flag survives."""
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


def _summarize(s: _Store) -> None:
    """The per-cluster statistics, which the store derives; derived here
    rather than inside the writer, so that write_seconds times only text."""
    s["summary"]


class Stage(NamedTuple):
    """One step of the chain: the artifacts --in overrides (or a function of
    the config giving them), the artifacts it writes (--out overrides the
    first) and its function on the store, which writes any of them that
    has no writer in ARTIFACTS (ingest's samples). A stage without one only
    writes values it reads or the store derives (export)."""
    inputs: tuple | Callable[[PipelineConfig], tuple]
    outputs: tuple
    run: Callable[[_Store], None] | None = None


STAGES = {
    # "input" is the raw survey CSV, the config's input by default.
    "ingest": Stage(("input",), ("samples",), _ingest),
    "project": Stage(("samples",), ("coords",), _project),
    # --in is the one geo_metric reads: samples under euclidean_itm, else coords.
    "graph": Stage(lambda config: ("samples" if config.geo_metric == "euclidean_itm"
                                   else "coords",), ("adjacency",), _graph),
    "cluster": Stage(("samples",), ("labeling",), _cluster),
    "refine": Stage(("labeling",), ("labeling",), _refine),
    "summarize": Stage(("labeling",), ("summary",), _summarize),
    "export": Stage(("labeling",), ("geojson", "plot_data")),
}


@contextmanager
def _gc_frozen():
    """Move every object the garbage collector tracks so far into its
    permanent generation for the body, and back after it, so that no full
    collection spends its time scanning what the imports and the caller
    left behind. A freeze the caller made is left as it is."""
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _run(s: _Store, names: list[str]) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Run the named stages in order on s; return each one's seconds, the
    process's peak RSS in MiB at the end of each stage and the Python
    warnings the stages raised, each message once. After each stage the
    freed heap is given back to the OS (cpf.release_memory), so the next
    stage's peak starts from the memory still live. A stage writes the
    outputs that no later stage in names rewrites, to the --out path if
    given, else where they are read (s.output), and s books each file and
    its writer's seconds (part of its stage's). On an error or an interrupt
    the files this run wrote are removed; an error is raised as StageError
    naming the stage, an interrupt (KeyboardInterrupt) as it is. The stages
    run with the objects tracked before them frozen (_gc_frozen)."""
    seconds, peak_rss = {}, {}
    with _gc_frozen(), warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        for i, name in enumerate(names):
            stage, start = STAGES[name], time.perf_counter()
            rewritten = {key for later in names[i + 1:] for key in STAGES[later].outputs}
            try:
                if stage.run:
                    stage.run(s)
                for key in stage.outputs:
                    if ARTIFACTS[key].write and key not in rewritten:
                        path, write_start = s.output(key), time.perf_counter()
                        ARTIFACTS[key].write(s, path)
                        s.write_seconds[key] = time.perf_counter() - write_start
                        s.written.append(path)
            except BaseException as exc:
                for path in s.written:
                    path.unlink(missing_ok=True)
                if not isinstance(exc, Exception):
                    raise
                raise StageError(name, exc) from exc
            seconds[name] = time.perf_counter() - start
            peak_rss[name] = cpf.peak_rss_mib()
            cpf.release_memory()
    return seconds, peak_rss, list(dict.fromkeys(str(w.message) for w in raised))


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
        inputs = stage.inputs(config) if callable(stage.inputs) else stage.inputs
        paths.update(dict.fromkeys(inputs, in_path))
    s = _Store(config, paths, out={stage.outputs[0]: out_path})
    try:
        *_, raised = _run(s, [name])
    except StageError as exc:
        raise exc.cause
    if messages is None:
        for message in raised:
            warnings.warn(message, stacklevel=2)
    else:
        messages.extend(raised)
    return tuple(s.written) if len(s.written) > 1 else s.written[0]


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

    Returns the run report, which is also written to report.json: the
    graph and fit figures the cluster stage took as it ended (s.report, see
    _cluster; the fit and the geographic graph are not held past it),
    merged with the run's own, taken once every stage is done. The cluster
    stage's figures count the edges of the geographic, feature and
    intersected graphs, map each component size to its number of
    components, and give the number of centers before merging (n_centers)
    beside the clusters after it (n_clusters). geo_edges_kept_fraction is
    the share of geographic edges the intersection keeps, n_isolated the
    samples it leaves with no edge, and intersected_degree_quartiles the
    25th, 50th and 75th percentiles of the intersected degrees; fit_seconds
    times each phase of cpf.fit, and fit_peak_rss_mib is the peak RSS at
    the end of each phase. The run's own are the sample count, the CH
    score, the flag count, the timings and RSS, threads, warnings, config
    and seed. Its warnings are those the stages raised, each once, then a
    degenerate result's, which says how many outliers were stranded by
    min_component_size and gives the median intersected degree;
    write_seconds times each artifact's writer (inside its stage's
    stage_seconds). peak_rss_mib is the process's peak resident set size so far, and
    peak_rss_growth_mib how far this run raised it (0 when the run stayed
    under an earlier run's peak); stage_peak_rss_mib is that peak as it
    stood at the end of each stage, so a stage whose value exceeds the one
    before it raised the peak. The freed heap is given back after every
    stage and fit phase, so such a rise is that step's own live memory
    above what earlier steps still hold, not pages they freed. threads is
    the most threads the kNN and big-brother passes run on (graph.THREADS,
    the usable cores).
    """
    start_rss = cpf.peak_rss_mib()
    s = _Store(config)
    seconds, stage_rss, messages = _run(s, list(STAGES))
    n, figures = s["samples"].n, s.report
    labeling = cpf.ClusterLabeling(labels=s["labeling"]["labels"])
    try:
        ch = metrics.calinski_harabasz(s["features"][config.calinski_harabasz.features], labeling,
                                       include_outliers=config.calinski_harabasz.include_outliers)
    except ParameterError:
        ch = None
    peak_rss = cpf.peak_rss_mib()
    n_outliers = figures["n_outliers"]
    if n_outliers > DEGENERATE_OUTLIER_FRACTION * n:
        messages.append(f"{n_outliers / n:.0%} of samples ({n_outliers} of {n}) "
                        f"are outliers, above the degenerate-result threshold of "
                        f"{DEGENERATE_OUTLIER_FRACTION:.0%}; {figures['n_stranded']} of them lie "
                        f"in components smaller than min_component_size "
                        f"({config.cpf.component_size_floor}), and the median intersected "
                        f"degree is {figures['intersected_degree_quartiles'][1]:g}")
    report = {
        "n_samples": n,
        **figures,
        "calinski_harabasz": ch if ch is None or math.isfinite(ch) else "inf",
        "n_flagged": int(np.sum(s["labeling"]["iforest_flag"])),
        "stage_seconds": {k: round(v, 4) for k, v in seconds.items()},
        "write_seconds": {k: round(v, 4) for k, v in s.write_seconds.items()},
        "peak_rss_mib": round(peak_rss, 1),
        "peak_rss_growth_mib": round(peak_rss - start_rss, 1),
        "stage_peak_rss_mib": {k: round(v, 1) for k, v in stage_rss.items()},
        "threads": graph.THREADS,
        "warnings": messages,
        "config": config.to_dict(),
        "seed": config.seed,
    }
    with atomic_open(s.path("report"), encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
