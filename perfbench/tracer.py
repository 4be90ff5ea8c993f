"""Span tracing of spatialcpf from outside the package.

The traced run replaces module attributes with timing wrappers at run time,
so the program's source stays unchanged. Each wrapped call records one span
(name, start, end, parent, pass id, plus counts taken from its arguments or
result). Spans stay in memory until the benchmark writes them out.

A wrapped name that no longer exists (a later change removed or renamed the
function) is reported as absent rather than failing the run.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the enclosed code; yields the open Span."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counts=None, track_rss: bool = False):
        """Replace module.attr with a wrapper that records a span named name.

        counts(args, kwargs, result) returns a dict of exact counts to attach.
        track_rss attaches the rise of the process's peak RSS across the call.
        """
        target = getattr(module, attr, None)
        if target is None:
            self.absent.append(name)
            return

        def wrapper(*args, **kwargs):
            rss_before = _maxrss_mib() if track_rss else 0.0
            with self.span(name) as span:
                result = target(*args, **kwargs)
            if track_rss:
                span.counts["rss_growth_mib"] = _maxrss_mib() - rss_before
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Calls nest on one thread, so children of a span never overlap.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every spatialcpf layer the benchmark reports.

    Span names are '<layer>.<function>', the layer being the module whose
    attribute is replaced. cpf's own references to graph functions are
    wrapped as cpf attributes, so the calls made inside cpf.fit are told
    apart from the geographic graph build that the pipeline makes.
    """
    from spatialcpf import cpf, geodesy, graph, iforest, ingest, metrics, pipeline

    for stage in ("ingest", "project", "graph", "cluster", "refine", "summarize", "export"):
        tracer.wrap(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}")
    tracer.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    tracer.wrap(pipeline, "_write_csv", "pipeline.write_csv")
    tracer.wrap(pipeline, "read_labeling", "pipeline.read_labeling")

    tracer.wrap(ingest, "parse_g5_csv", "ingest.parse_g5_csv",
                counts=lambda a, k, r: {"rows": r.n})
    tracer.wrap(ingest, "standardize", "ingest.standardize")

    tracer.wrap(geodesy, "itm_to_wgs84", "geodesy.itm_to_wgs84")

    tracer.wrap(graph, "mutual_knn_graph", "graph.mutual_knn_graph",
                counts=lambda a, k, r: {"edges": r.n_edges})
    tracer.wrap(graph, "dump_adjacency", "graph.dump_adjacency")
    tracer.wrap(graph, "load_adjacency", "graph.load_adjacency")

    tracer.wrap(cpf, "fit", "cpf.fit",
                counts=lambda a, k, r: {"n_clusters": r.labeling.n_clusters,
                                        "outliers": r.labeling.n_outliers})
    tracer.wrap(cpf, "mutual_knn_graph", "cpf.mutual_knn_graph",
                counts=lambda a, k, r: {"edges": r.n_edges})
    tracer.wrap(cpf, "hadamard_intersect", "cpf.hadamard_intersect",
                counts=lambda a, k, r: {"edges": r.n_edges})
    tracer.wrap(cpf, "connected_components", "cpf.connected_components",
                counts=lambda a, k, r: {
                    "n_components": r.n_components,
                    "largest": max(r.component_sizes.values(), default=0)})
    tracer.wrap(cpf, "knn_density", "cpf.knn_density")
    tracer.wrap(cpf, "big_brother", "cpf.big_brother", track_rss=True)
    tracer.wrap(cpf, "select_centers", "cpf.select_centers",
                counts=lambda a, k, r: {"centers": len(r)})
    tracer.wrap(cpf, "assign_clusters", "cpf.assign_clusters")
    tracer.wrap(cpf, "merge_clusters", "cpf.merge_clusters")

    tracer.wrap(iforest, "fit_iforest", "iforest.fit_iforest")
    tracer.wrap(iforest, "anomaly_scores", "iforest.anomaly_scores",
                counts=lambda a, k, r: {"samples": len(r)})

    tracer.wrap(metrics, "cluster_summary", "metrics.cluster_summary")
    tracer.wrap(metrics, "calinski_harabasz", "metrics.calinski_harabasz")


LAYERS = ("pipeline", "ingest", "geodesy", "graph", "cpf", "iforest", "metrics")

# Per-layer metric -> (unit, how it is derived from the spans of one pass).
# ("time", span) sums durations; ("calls", span) counts spans;
# ("count", span, key) sums a recorded count; ("max", span, key) takes the
# largest recorded count.
SPAN_METRICS = {
    **{f"pipeline.stage_{s}_s": ("s", ("time", f"pipeline.stage_{s}"))
       for s in ("ingest", "project", "graph", "cluster", "refine", "summarize", "export")},
    "pipeline.write_csv_s": ("s", ("time", "pipeline.write_csv")),
    "pipeline.read_labeling_s": ("s", ("time", "pipeline.read_labeling")),
    "pipeline.read_labeling_calls": ("count", ("calls", "pipeline.read_labeling")),
    "ingest.parse_calls": ("count", ("calls", "ingest.parse_g5_csv")),
    "ingest.rows_parsed": ("count", ("count", "ingest.parse_g5_csv", "rows")),
    "ingest.parse_s": ("s", ("time", "ingest.parse_g5_csv")),
    "ingest.standardize_s": ("s", ("time", "ingest.standardize")),
    "geodesy.itm_to_wgs84_calls": ("count", ("calls", "geodesy.itm_to_wgs84")),
    "geodesy.itm_to_wgs84_s": ("s", ("time", "geodesy.itm_to_wgs84")),
    "graph.geo_knn_s": ("s", ("time", "graph.mutual_knn_graph")),
    "graph.geo_edges": ("count", ("max", "graph.mutual_knn_graph", "edges")),
    "graph.dump_s": ("s", ("time", "graph.dump_adjacency")),
    "graph.load_s": ("s", ("time", "graph.load_adjacency")),
    "cpf.fit_s": ("s", ("time", "cpf.fit")),
    "cpf.feature_knn_s": ("s", ("time", "cpf.mutual_knn_graph")),
    "cpf.feature_edges": ("count", ("max", "cpf.mutual_knn_graph", "edges")),
    "cpf.intersect_s": ("s", ("time", "cpf.hadamard_intersect")),
    "cpf.intersected_edges": ("count", ("max", "cpf.hadamard_intersect", "edges")),
    "cpf.components_s": ("s", ("time", "cpf.connected_components")),
    "cpf.n_components": ("count", ("max", "cpf.connected_components", "n_components")),
    "cpf.largest_component": ("count", ("max", "cpf.connected_components", "largest")),
    "cpf.density_s": ("s", ("time", "cpf.knn_density")),
    "cpf.big_brother_s": ("s", ("time", "cpf.big_brother")),
    "cpf.big_brother_rss_growth_mib": ("MiB", ("max", "cpf.big_brother", "rss_growth_mib")),
    "cpf.centers_s": ("s", ("time", "cpf.select_centers")),
    "cpf.centers": ("count", ("max", "cpf.select_centers", "centers")),
    "cpf.assign_s": ("s", ("time", "cpf.assign_clusters")),
    "cpf.merge_s": ("s", ("time", "cpf.merge_clusters")),
    "cpf.n_clusters": ("count", ("max", "cpf.fit", "n_clusters")),
    "cpf.outliers": ("count", ("max", "cpf.fit", "outliers")),
    "iforest.fit_s": ("s", ("time", "iforest.fit_iforest")),
    "iforest.score_s": ("s", ("time", "iforest.anomaly_scores")),
    "iforest.scored_samples": ("count", ("count", "iforest.anomaly_scores", "samples")),
    "metrics.summary_s": ("s", ("time", "metrics.cluster_summary")),
    "metrics.summary_calls": ("count", ("calls", "metrics.cluster_summary")),
    "metrics.ch_s": ("s", ("time", "metrics.calinski_harabasz")),
}


def pass_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass and the metric names whose spans
    are absent because the wrapped function no longer exists.

    The retune workload repeats the clustering calls once per setting:
    "max" metrics report the largest per-call value, "count" metrics the sum.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    absent = []
    for metric, (_, rule) in SPAN_METRICS.items():
        kind, span_name = rule[0], rule[1]
        if span_name in tracer.absent:
            absent.append(metric)
        spans = by_name.get(span_name, [])
        if kind == "time":
            out[metric] = sum(s.duration for s in spans)
        elif kind == "calls":
            out[metric] = len(spans)
        elif kind == "count":
            out[metric] = sum(s.counts.get(rule[2], 0) for s in spans)
        else:
            out[metric] = max((s.counts.get(rule[2], 0) for s in spans), default=0)

    runs = by_name.get("pipeline.run_pipeline", [])
    stage_ends = {s.parent: s.end for s in tracer.spans if s.name.startswith("pipeline.stage_")}
    out["pipeline.report_s"] = sum(r.end - stage_ends.get(r.id, r.start) for r in runs)
    if "pipeline.run_pipeline" in tracer.absent:
        absent.append("pipeline.report_s")

    own = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[s.id] for s in tracer.spans
                                     if s.name.split(".", 1)[0] == layer)
    out["trace.spans"] = len(tracer.spans)
    return out, absent
