"""Spatially-constrained component-wise peak-finding clustering of
multi-element geochemical soil samples, with Isolation Forest outlier
refinement and GIS-ready exports."""

from .cpf import ClusterLabeling, CpfParams, FitResult, fit
from .geodesy import ITM, TmProjection, itm_to_wgs84, wgs84_to_itm
from .graph import (SparseAdjacency, connected_components, hadamard_intersect,
                    mutual_knn_graph)
from .iforest import anomaly_scores, fit_iforest, flag_outliers
from .ingest import ELEMENTS, SampleTable, parse_g5_csv, standardize
from .metrics import calinski_harabasz, cluster_summary
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ClusterLabeling", "CpfParams", "FitResult", "fit",
    "ITM", "TmProjection", "itm_to_wgs84", "wgs84_to_itm",
    "SparseAdjacency", "connected_components", "hadamard_intersect", "mutual_knn_graph",
    "anomaly_scores", "fit_iforest", "flag_outliers",
    "ELEMENTS", "SampleTable", "parse_g5_csv", "standardize",
    "calinski_harabasz", "cluster_summary",
    "PipelineConfig", "run_pipeline",
]
