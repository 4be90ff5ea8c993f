"""Component-wise peak-finding clustering on an intersected neighborhood graph.

Pipeline inside fit(): one feature-space kNN query with the same k as the
geographic graph yields both the feature mutual kNN graph and the kNN
density radii; intersect the feature graph with the geographic graph, split
into connected components, estimate kNN densities, link each sample to its
nearest higher-density neighbor within its component ("big brother"), pick
cluster centers from the omega/density quantile rule, propagate labels down
the big-brother tree, then merge near-duplicate clusters. Samples stranded in
components smaller than min_component_size are labeled -1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph
from scipy.spatial.distance import cdist

from .errors import InternalConsistencyError, ParameterError
from .graph import (ComponentLabels, SparseAdjacency, connected_components,
                    hadamard_intersect, knn, mutual_graph)

OUTLIER = -1


@dataclass(frozen=True)
class CpfParams:
    min_samples: int = 75
    rho: float = 0.01
    alpha: float = 0.015
    merge_threshold: float = 7.5
    density_ratio_threshold: float = 0.7
    min_component_size: int | None = None  # defaults to min_samples

    def __post_init__(self):
        if self.min_samples < 1:
            raise ParameterError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.merge_threshold < 0.0:
            raise ParameterError(f"merge_threshold must be >= 0, got {self.merge_threshold}")
        if not 0.0 < self.density_ratio_threshold <= 1.0:
            raise ParameterError(
                f"density_ratio_threshold must be in (0, 1], got {self.density_ratio_threshold}")
        if self.min_component_size is not None and self.min_component_size < 1:
            raise ParameterError(
                f"min_component_size must be >= 1, got {self.min_component_size}")

    @property
    def component_size_floor(self) -> int:
        return self.min_component_size if self.min_component_size is not None else self.min_samples


@dataclass(frozen=True)
class DensityEstimate:
    r_k: np.ndarray
    log_density: np.ndarray


@dataclass(frozen=True)
class BigBrother:
    """parent[i] = nearest same-component sample of strictly higher density
    (-1 at each component's density maximum); omega[i] = distance to it
    (+inf at the maximum)."""

    parent: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class ClusterLabeling:
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if np.any(self.labels >= 0) else 0

    @property
    def n_outliers(self) -> int:
        return int(np.sum(self.labels == OUTLIER))

    def cluster_sizes(self) -> list[int]:
        return [int(np.sum(self.labels == c)) for c in range(self.n_clusters)]


def _log_unit_ball_volume(d: int) -> float:
    return (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def knn_density(radius: np.ndarray, d: int, params: CpfParams) -> DensityEstimate:
    """kNN density in log form: log k - log n - log V_d - d*log r_k, with r_k
    the distance to the min_samples-th nearest neighbor over all samples
    (radius, as returned by graph.knn) in d-dimensional feature space."""
    r_k = np.array(radius, dtype=float)
    n = r_k.shape[0]
    k = params.min_samples
    if n <= k:
        raise ParameterError(f"need n > min_samples ({k}), got n={n}")
    if np.any(r_k == 0.0):
        positive = r_k[r_k > 0.0]
        # All-duplicate input: any constant radius gives equal densities.
        fill = positive.min() * 1e-3 if positive.size else 1.0
        warnings.warn(
            f"{int(np.sum(r_k == 0.0))} sample(s) have duplicate-point kNN radius 0; "
            f"substituting {fill:.3e}")
        r_k[r_k == 0.0] = fill
    log_density = (math.log(k) - math.log(n) - _log_unit_ball_volume(d)
                   - d * np.log(r_k))
    return DensityEstimate(r_k=r_k, log_density=log_density)


def big_brother(features: np.ndarray, density: DensityEstimate,
                components: ComponentLabels) -> BigBrother:
    """Nearest strictly-denser same-component neighbor for every sample.

    Density ties qualify when the candidate has the lower index; distance
    ties resolve toward the lower index. The per-component density maximum
    gets parent -1 and omega +inf.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if components.n != n:
        raise ParameterError("component labeling does not match feature count")
    parent = np.full(n, -1, dtype=np.int64)
    omega = np.full(n, np.inf)
    log_density = density.log_density

    for comp in range(components.n_components):
        members = np.flatnonzero(components.labels == comp)
        m = members.size
        if m == 1:
            continue
        # Sort by descending density, ascending index on ties; predecessors in
        # this order are exactly the qualifying big-brother candidates.
        order = np.lexsort((members, -log_density[members]))
        ranked = members[order]
        pts = features[ranked]
        dmat = cdist(pts, pts)
        for pos in range(1, m):
            cand_d = dmat[pos, :pos]
            best = cand_d.min()
            tied = np.flatnonzero(cand_d == best)
            choice = ranked[tied[np.argmin(ranked[tied])]] if tied.size > 1 else ranked[tied[0]]
            i = ranked[pos]
            parent[i] = choice
            omega[i] = best
    return BigBrother(parent=parent, omega=omega)


def select_centers(density: DensityEstimate, bb: BigBrother,
                   components: ComponentLabels, params: CpfParams) -> np.ndarray:
    """Centers per qualifying component: omega above the (1 - alpha)-quantile
    of finite omegas (or +inf) and density at or above the rho-quantile."""
    centers = []
    floor = params.component_size_floor
    for comp, size in components.component_sizes.items():
        if size < floor:
            continue
        members = np.flatnonzero(components.labels == comp)
        omegas = bb.omega[members]
        finite = omegas[np.isfinite(omegas)]
        dens = density.log_density[members]
        rho_cut = np.quantile(dens, params.rho)
        if finite.size:
            omega_cut = np.quantile(finite, 1.0 - params.alpha)
            picked = members[((omegas > omega_cut) | np.isinf(omegas)) & (dens >= rho_cut)]
        else:
            picked = members[np.isinf(omegas) & (dens >= rho_cut)]
        centers.extend(picked.tolist())
    return np.array(sorted(centers), dtype=np.int64)


def assign_clusters(bb: BigBrother, centers: np.ndarray,
                    components: ComponentLabels, params: CpfParams) -> ClusterLabeling:
    """Propagate labels down big-brother chains; small components become -1.

    Cluster ids at this stage follow ascending center index; merge_clusters
    re-indexes by size afterwards.
    """
    n = components.n
    labels = np.full(n, OUTLIER, dtype=np.int64)
    center_ids = {int(c): idx for idx, c in enumerate(centers)}
    floor = params.component_size_floor
    qualifying = {c for c, s in components.component_sizes.items() if s >= floor}
    for i, cid in center_ids.items():
        labels[i] = cid

    for i in range(n):
        if labels[i] != OUTLIER or components.labels[i] not in qualifying:
            continue
        chain = []
        j = i
        while labels[j] == OUTLIER:
            chain.append(j)
            j = int(bb.parent[j])
            if j < 0 or len(chain) > n:
                raise InternalConsistencyError(
                    f"big-brother chain from sample {i} does not reach a center")
        labels[chain] = labels[j]
    return ClusterLabeling(labels=labels)


def _relabel_by_size(labels: np.ndarray) -> np.ndarray:
    """Re-index non-negative labels to 0..K-1 by descending size; ties break
    toward the cluster containing the smallest sample index."""
    out = np.full_like(labels, OUTLIER)
    ids = np.unique(labels[labels >= 0])
    if ids.size == 0:
        return out
    sizes = np.array([np.sum(labels == c) for c in ids])
    first_member = np.array([np.flatnonzero(labels == c)[0] for c in ids])
    order = np.lexsort((first_member, -sizes))
    for new, pos in enumerate(order):
        out[labels == ids[pos]] = new
    return out


def merge_clusters(labeling: ClusterLabeling, centers: np.ndarray,
                   density: DensityEstimate, features: np.ndarray,
                   params: CpfParams) -> ClusterLabeling:
    """Union clusters whose centers are close in feature space and similar in
    density; transitive closure, then re-index by descending size."""
    features = np.asarray(features, dtype=float)
    labels = labeling.labels.copy()
    if centers.size >= 2 and params.merge_threshold > 0.0:
        pts = features[centers]
        dens = density.log_density[centers]
        ratio = np.exp(-np.abs(dens[:, None] - dens[None, :]))
        linked = (cdist(pts, pts) <= params.merge_threshold) & (
            ratio >= params.density_ratio_threshold)
        _, group = csgraph.connected_components(linked, directed=False)
        # Every center's cluster takes the cluster of its group's first center.
        first = np.unique(group, return_index=True)[1]
        cluster_of_center = labels[centers]
        remap = np.arange(labels.max() + 1)
        remap[cluster_of_center] = cluster_of_center[first[group]]
        mask = labels >= 0
        labels[mask] = remap[labels[mask]]
    return ClusterLabeling(labels=_relabel_by_size(labels))


@dataclass(frozen=True)
class FitResult:
    labeling: ClusterLabeling
    components: ComponentLabels
    density: DensityEstimate
    big_brother: BigBrother
    centers: np.ndarray
    intersected: SparseAdjacency


def fit(features: np.ndarray, geo_adj: SparseAdjacency, params: CpfParams) -> FitResult:
    """Full spatially-constrained CPF run; see module docstring for the phases."""
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if geo_adj.n != n:
        raise ParameterError(f"geo graph has {geo_adj.n} vertices, features have {n}")
    if n <= params.min_samples:
        raise ParameterError(f"n={n} must exceed min_samples={params.min_samples}")

    neighbors, radius = knn(features, params.min_samples)
    intersected = hadamard_intersect(mutual_graph(neighbors), geo_adj)
    components = connected_components(intersected)
    density = knn_density(radius, features.shape[1], params)
    bb = big_brother(features, density, components)
    centers = select_centers(density, bb, components, params)
    labeling = assign_clusters(bb, centers, components, params)
    labeling = merge_clusters(labeling, centers, density, features, params)
    return FitResult(labeling=labeling, components=components, density=density,
                     big_brother=bb, centers=centers, intersected=intersected)
