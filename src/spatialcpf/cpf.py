"""Component-wise peak-finding clustering on an intersected neighborhood graph.

Pipeline inside fit(): one feature-space kNN query with the same k as the
geographic graph yields both the feature mutual kNN graph and the kNN
density radii; intersect the feature graph with the geographic graph, split
into connected components, estimate kNN densities, link each sample to its
nearest higher-density neighbor within its component ("big brother"), pick
cluster centers from the omega/density quantile rule, propagate labels down
the big-brother tree, then merge near-duplicate clusters. Samples stranded in
components smaller than min_component_size are labeled -1.

The big-brother step reuses the feature kNN lists: a sample whose nearest
denser same-component list entry lies strictly inside its k-th-neighbor
radius takes that entry, since no sample off the list can be as close. Only
the remaining samples (component peaks, duplicates, ties at the radius) are
measured against their component's denser members, in bounded row blocks,
so no component needs an m-by-m distance matrix.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
from scipy.sparse import csgraph
from scipy.spatial.distance import cdist

from .errors import InternalConsistencyError, ParameterError, require_type
from .graph import (FP_MARGIN, ComponentLabels, SparseAdjacency,
                    connected_components, hadamard_intersect, knn, mutual_graph)

OUTLIER = -1
# Distance entries per fallback block in big_brother (8 MiB of float64).
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class CpfParams:
    min_samples: int = 75
    rho: float = 0.01
    alpha: float = 0.015
    merge_threshold: float = 7.5
    density_ratio_threshold: float = 0.7
    min_component_size: int | None = None  # defaults to min_samples

    def __post_init__(self):
        require_type("min_samples", self.min_samples, Integral)
        for name in ("rho", "alpha", "merge_threshold", "density_ratio_threshold"):
            require_type(name, getattr(self, name), Real)
        if self.min_component_size is not None:
            require_type("min_component_size", self.min_component_size, Integral)
        if self.min_samples < 1:
            raise ParameterError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.merge_threshold >= 0.0:
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


def _pair_distances(features: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cdist value of each pair (rows[t], cols[t]), read off the diagonals of
    64-by-64 cdist blocks; one pair's cdist value does not depend on the
    block it is computed in."""
    out = np.empty(rows.size)
    for s in range(0, rows.size, 64):
        pairs = slice(s, s + 64)
        out[pairs] = np.diagonal(cdist(features[rows[pairs]], features[cols[pairs]]))
    return out


def big_brother(features: np.ndarray, density: DensityEstimate,
                components: ComponentLabels, neighbors: np.ndarray,
                radius: np.ndarray) -> BigBrother:
    """Nearest strictly-denser same-component neighbor for every sample.

    Samples are ranked by descending density, the lower index first on
    density ties; a candidate qualifies for sample i when it is in i's
    component and ranks above i. The nearest qualifying candidate is i's
    parent and its cdist distance is omega[i]; distance ties resolve toward
    the lower index. Each component's top-ranked sample gets parent -1 and
    omega +inf.

    neighbors and radius are graph.knn's (n, k) lists over these features and
    its raw k-th-neighbor distances. Every sample off i's list lies at least
    radius[i] from i, so when i's nearest qualifying list entry is strictly
    inside radius[i], every qualifying sample that close is on the list and
    the list decides parent and omega. Distances from knn, numpy and cdist
    differ in rounding, so the radius is shrunk by FP_MARGIN before this
    test and omega is always a cdist value (one pair's cdist value does not
    depend on the block it is computed in). The rest -- samples without a
    qualifying list entry, with radius 0 (duplicates) or with the nearest
    entry at the radius -- are measured against all denser members of their
    component, in row blocks of about _BLOCK_ENTRIES distances (one row at
    the least), so memory stays O(n k + block) rather than O(m^2) for a
    component of m samples.
    """
    features = np.asarray(features, dtype=float)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    n = features.shape[0]
    if components.n != n:
        raise ParameterError("component labeling does not match feature count")
    if neighbors.ndim != 2 or neighbors.shape[0] != n or np.shape(radius) != (n,):
        raise ParameterError("neighbor lists do not match feature count")
    comp = np.asarray(components.labels)
    order = np.lexsort((np.arange(n), -density.log_density))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    parent = np.full(n, -1, dtype=np.int64)
    omega = np.full(n, np.inf)

    # Rank the qualifying list entries by a vectorised distance, then take
    # cdist values for those within the rounding margin of each row's nearest.
    qualifies = (comp[neighbors] == comp[:, None]) & (rank[neighbors] < rank[:, None])
    approx = np.zeros(neighbors.shape)
    for column in features.T:
        approx += (column[neighbors] - column[:, None]) ** 2
    approx = np.where(qualifies, np.sqrt(approx), np.inf)
    near = qualifies & (approx <= approx.min(axis=1, keepdims=True) * (1.0 + FP_MARGIN))
    exact = np.full(neighbors.shape, np.inf)
    exact[near] = _pair_distances(features, np.nonzero(near)[0], neighbors[near])
    best = exact.min(axis=1)
    resolved = best < np.asarray(radius, dtype=float) * (1.0 - FP_MARGIN)
    parent[resolved] = np.where(exact == best[:, None], neighbors, n).min(axis=1)[resolved]
    omega[resolved] = best[resolved]

    # Members grouped by component, denser first: the qualifying candidates
    # of the sample in slot s are the slots from its component's first to s.
    grouped = order[np.argsort(comp[order], kind="stable")]
    slot = np.empty(n, dtype=np.int64)
    slot[grouped] = np.arange(n)
    first = np.searchsorted(comp[grouped], comp)
    pending = (parent < 0) & (slot > first)
    todo = grouped[pending[grouped]]
    for rows in np.split(todo, np.flatnonzero(np.diff(first[todo])) + 1):
        if rows.size == 0:
            continue
        lo = first[rows[0]]
        step = max(1, _BLOCK_ENTRIES // int(slot[rows[-1]] - lo))
        for b in range(0, rows.size, step):
            block = rows[b:b + step]
            width = slot[block] - lo
            cols = grouped[lo:lo + width[-1]]
            dist = cdist(features[block], features[cols])
            valid = np.arange(cols.size) < width[:, None]
            dist[~valid] = np.inf
            best = dist.min(axis=1)
            parent[block] = np.where(valid & (dist == best[:, None]), cols, n).min(axis=1)
            omega[block] = best
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
    """fit's outputs; seconds holds the wall time of each phase, by name."""
    labeling: ClusterLabeling
    components: ComponentLabels
    density: DensityEstimate
    big_brother: BigBrother
    centers: np.ndarray
    intersected: SparseAdjacency
    seconds: dict[str, float] = field(default_factory=dict)


def _timed(seconds: dict, phase: str, func, *args):
    """func(*args), its wall time recorded in seconds[phase]."""
    start = time.perf_counter()
    result = func(*args)
    seconds[phase] = time.perf_counter() - start
    return result


def fit(features: np.ndarray, geo_adj: SparseAdjacency, params: CpfParams) -> FitResult:
    """Full spatially-constrained CPF run; see module docstring for the phases.
    Each phase is timed under its name in FitResult.seconds: knn, mutual,
    intersect, components, density, big_brother, centers, assign, merge."""
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if geo_adj.n != n:
        raise ParameterError(f"geo graph has {geo_adj.n} vertices, features have {n}")
    if n <= params.min_samples:
        raise ParameterError(f"n={n} must exceed min_samples={params.min_samples}")

    seconds = {}
    neighbors, radius = _timed(seconds, "knn", knn, features, params.min_samples)
    feature_graph = _timed(seconds, "mutual", mutual_graph, neighbors)
    intersected = _timed(seconds, "intersect", hadamard_intersect, feature_graph, geo_adj)
    components = _timed(seconds, "components", connected_components, intersected)
    density = _timed(seconds, "density", knn_density, radius, features.shape[1], params)
    bb = _timed(seconds, "big_brother", big_brother, features, density, components,
                neighbors, radius)
    centers = _timed(seconds, "centers", select_centers, density, bb, components, params)
    labeling = _timed(seconds, "assign", assign_clusters, bb, centers, components, params)
    labeling = _timed(seconds, "merge", merge_clusters, labeling, centers, density, features,
                      params)
    return FitResult(labeling=labeling, components=components, density=density,
                     big_brother=bb, centers=centers, intersected=intersected,
                     seconds=seconds)
