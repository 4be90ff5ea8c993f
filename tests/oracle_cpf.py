"""Brute-force cpf oracles for the tests: big brother and a whole fit.

The direct constructions, rebuilt from the package's first implementation:
full distance matrices with index tie-breaks, Python loops over pairs and
neighbor lists, a breadth-first search for components and, per component,
the full member-by-member distance matrix for the big brother. They need
O(n^2) memory, so the tests call them on small inputs only; cpf.big_brother
and cpf.fit must equal them.
"""

import math
import warnings

import numpy as np
from scipy.spatial.distance import cdist

from spatialcpf.cpf import (OUTLIER, BigBrother, ClusterLabeling, CpfParams,
                            DensityEstimate, FitResult)
from spatialcpf.errors import ParameterError
from spatialcpf.graph import ComponentLabels, SparseAdjacency


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


def knn_lists(points: np.ndarray, k: int) -> tuple[list[list[int]], np.ndarray]:
    """Each point's k nearest others by (distance, index) from the full
    distance matrix, and its k-th nearest distance."""
    dmat = cdist(points, points)
    lists, radius = [], []
    for i in range(len(points)):
        ranked = sorted((dmat[i, j], j) for j in range(len(points)) if j != i)
        lists.append([j for _, j in ranked[:k]])
        radius.append(ranked[k - 1][0])
    return lists, np.array(radius)


def mutual_edges(lists: list[list[int]]) -> set[tuple[int, int]]:
    sets = [set(nb) for nb in lists]
    return {(min(i, j), max(i, j)) for i, nb in enumerate(lists) for j in nb if i in sets[j]}


def bfs_components(n: int, edges: set[tuple[int, int]]) -> ComponentLabels:
    """Components numbered in order of their smallest member."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = comp
        queue = [start]
        while queue:
            for v in adj[queue.pop()]:
                if labels[v] == -1:
                    labels[v] = comp
                    queue.append(v)
        comp += 1
    sizes = {c: int(np.sum(labels == c)) for c in range(comp)}
    return ComponentLabels(labels=labels, component_sizes=sizes)


def fit(features: np.ndarray, geo_adj: SparseAdjacency, params: CpfParams) -> FitResult:
    """cpf.fit by brute force: the same phases, one loop at a time."""
    features = np.asarray(features, dtype=float)
    n, d = features.shape
    k = params.min_samples
    lists, r_k = knn_lists(features, k)
    feature_edges = mutual_edges(lists)
    intersected = feature_edges & geo_adj.edge_set()
    components = bfs_components(n, intersected)

    if np.any(r_k == 0.0):
        positive = r_k[r_k > 0.0]
        fill = positive.min() * 1e-3 if positive.size else 1.0
        warnings.warn(f"{int(np.sum(r_k == 0.0))} duplicate-point kNN radii")
        r_k[r_k == 0.0] = fill
    log_ball = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
    log_density = math.log(k) - math.log(n) - log_ball - d * np.log(r_k)
    density = DensityEstimate(r_k=r_k, log_density=log_density)
    bb = big_brother(features, density, components)

    # Centers: omega above the (1 - alpha)-quantile of finite omegas (or
    # +inf) and density at or above the rho-quantile, per qualifying component.
    floor = params.component_size_floor
    centers = []
    for comp, size in components.component_sizes.items():
        if size < floor:
            continue
        members = np.flatnonzero(components.labels == comp)
        omegas = bb.omega[members]
        finite = omegas[np.isfinite(omegas)]
        dens = log_density[members]
        far = np.isinf(omegas)
        if finite.size:
            far |= omegas > np.quantile(finite, 1.0 - params.alpha)
        centers.extend(members[far & (dens >= np.quantile(dens, params.rho))].tolist())
    centers = np.array(sorted(centers), dtype=np.int64)

    # Assign: follow each sample's big-brother chain up to a center.
    labels = np.full(n, OUTLIER, dtype=np.int64)
    labels[centers] = np.arange(centers.size)
    for i in range(n):
        if components.component_sizes[int(components.labels[i])] < floor:
            continue
        j = i
        while labels[j] == OUTLIER:
            j = int(bb.parent[j])
            assert j >= 0, f"big-brother chain from {i} misses every center"
        labels[i] = labels[j]

    # Merge: join the clusters of every close, similarly dense center pair.
    dmat = cdist(features[centers], features[centers])
    root = list(range(centers.size))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a in range(centers.size):
        for b in range(a + 1, centers.size):
            ratio = math.exp(-abs(log_density[centers[a]] - log_density[centers[b]]))
            if (params.merge_threshold > 0.0 and dmat[a, b] <= params.merge_threshold
                    and ratio >= params.density_ratio_threshold):
                root[find(b)] = find(a)
    labels = np.array([find(c) if c >= 0 else OUTLIER for c in labels], dtype=np.int64)

    # Relabel by descending size, then by smallest member.
    clusters = sorted(set(labels[labels >= 0].tolist()),
                      key=lambda c: (-np.sum(labels == c), np.flatnonzero(labels == c)[0]))
    relabel = {c: new for new, c in enumerate(clusters)}
    labels = np.array([relabel.get(c, OUTLIER) for c in labels], dtype=np.int64)

    return FitResult(labeling=ClusterLabeling(labels=labels), components=components,
                     density=density, big_brother=bb, centers=centers,
                     intersected=SparseAdjacency(n=n, edges=sorted(intersected)),
                     feature_edges=len(feature_edges))
