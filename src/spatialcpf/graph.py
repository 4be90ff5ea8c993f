"""Sparse neighborhood graphs: mutual kNN construction, intersection, components.

Graphs are stored as sorted undirected edge arrays over vertex indices;
mutuality and components are computed on scipy.sparse matrices built from
them. Haversine kNN is computed exactly by embedding (lat, lon) on the unit
sphere and querying a kd-tree with chord distance, which is monotone in
great-circle distance.

knn is exact with ties broken by ascending index. It asks the kd-tree for
each point's k+2 nearest, in row blocks, and orders them by (numpy distance,
index). A row is settled when the gap after its k-th neighbor exceeds the
rounding margin FP_MARGIN: every point the tree did not return is at least
as far as the ones it did, so none can come before the k-th. Only rows tied
at the cut, or inside a run of k+2 or more duplicate points, go through a
per-point ball query.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError
from .fileio import atomic_open

EARTH_RADIUS_M = 6371008.8  # mean Earth radius
# Relative slack between distances computed with different rounding (the
# kd-tree's, numpy's and cdist's), far wider than their actual gap.
FP_MARGIN = 1e-9
# Rows per kd-tree query block in knn; bounds its (rows, k+2, d) temporaries.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class SparseAdjacency:
    """Undirected graph over n vertices; edges as an (m, 2) array with u < v,
    lexicographically sorted, no self-loops, no duplicates."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edges}


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters between two (degree) coordinates."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    h = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2
    return float(2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)))


def _sphere_embed(latlon: np.ndarray) -> np.ndarray:
    lat = np.radians(latlon[:, 0])
    lon = np.radians(latlon[:, 1])
    return np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1
    )


def knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors per point, ties broken by ascending index.

    Returns an (n, k) int64 index array, each row ordered by (distance,
    index), and each point's k-th-neighbor radius: the kd-tree's (k+1)-th
    distance, self included.

    Points are queried in blocks of _BLOCK_ROWS rows for their k+2 nearest,
    self included. The candidates' distances are recomputed with numpy, and
    each row is ordered by (distance, index) with self last. A row is settled
    when self was returned and either every point was returned or the
    (k+1)-th non-self candidate lies beyond the k-th by the relative margin
    FP_MARGIN. That is exact: a point the tree did not return is at least as
    far as every one it did, so it is strictly beyond the k-th candidate, and
    the margin covers the rounding difference between the kd-tree's and
    numpy's distances. The rest -- ties at the cut, runs of k+2 or more
    duplicate points -- go to _resolve_ties.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ParameterError(f"k={k} must be < n={n}")
    if not np.all(np.isfinite(points)):
        raise DataError("non-finite coordinates")
    tree = cKDTree(points)
    width = min(k + 2, n)
    neighbors = np.empty((n, k), dtype=np.int64)
    cut = np.empty(n)
    unsettled = []
    for start in range(0, n, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, n))
        dist, idx = tree.query(points[rows], k=width)
        cut[rows] = dist[:, k]
        # The same per-row reduction as in _resolve_ties, so the same bits.
        d = np.linalg.norm(points[idx] - points[rows][:, None, :], axis=2)
        is_self = idx == rows[:, None]
        order = np.lexsort((idx, d, is_self), axis=-1)
        idx = np.take_along_axis(idx, order, axis=1)
        d = np.take_along_axis(d, order, axis=1)
        neighbors[rows] = idx[:, :k]
        settled = is_self.any(axis=1)
        if width < n:
            settled &= d[:, k] > d[:, k - 1] * (1 + FP_MARGIN)
        unsettled.append(rows[~settled])
    _resolve_ties(tree, points, np.concatenate(unsettled), cut, neighbors)
    return neighbors, cut


def _resolve_ties(tree: cKDTree, points: np.ndarray, rows: np.ndarray,
                  cut: np.ndarray, neighbors: np.ndarray) -> None:
    """Fill neighbors[rows] from a ball query to just beyond each row's cut,
    so that equidistant candidates compete by index."""
    if rows.size == 0:
        return
    k = neighbors.shape[1]
    # Relative slack keeps exact ties inside the ball despite fp round-off.
    radii = cut[rows] * (1 + 1e-12) + 1e-300
    candidates = tree.query_ball_point(points[rows], radii)
    for i, found in zip(rows.tolist(), candidates):
        cand = np.array([j for j in found if j != i], dtype=np.int64)
        d = np.linalg.norm(points[cand] - points[i], axis=1)
        order = np.lexsort((cand, d))
        neighbors[i] = cand[order[:k]]


def mutual_graph(neighbors: np.ndarray) -> SparseAdjacency:
    """Mutual graph of an (n, k) neighbor index array: edge (i, j) iff j is
    in row i and i is in row j."""
    n, k = neighbors.shape
    directed = sparse.csr_matrix(
        (np.ones(n * k, dtype=np.int8), neighbors.ravel(), np.arange(0, n * k + 1, k)),
        shape=(n, n))
    mutual = sparse.triu(directed.multiply(directed.T), k=1, format="csr")
    mutual.sort_indices()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(mutual.indptr))
    return SparseAdjacency(n=n, edges=np.stack([rows, mutual.indices], axis=1))


def mutual_knn_graph(points: np.ndarray, k: int, metric: str = "euclidean") -> SparseAdjacency:
    """Mutual kNN graph: edge (i, j) iff each is among the other's k nearest.

    metric "haversine" expects (lat, lon) degree pairs; "euclidean" any m-D
    points. Distance ties are broken toward the lower vertex index.
    """
    points = np.asarray(points, dtype=float)
    if metric == "haversine":
        if points.shape[1] != 2:
            raise ParameterError("haversine metric requires (lat, lon) pairs")
        points = _sphere_embed(points)
    elif metric != "euclidean":
        raise ParameterError(f"unknown metric: {metric}")
    neighbors, _ = knn(points, k)
    return mutual_graph(neighbors)


def hadamard_intersect(a: SparseAdjacency, b: SparseAdjacency) -> SparseAdjacency:
    """Edge-wise intersection of two graphs over the same vertex set."""
    if a.n != b.n:
        raise ParameterError(f"vertex count mismatch: {a.n} != {b.n}")
    if a.n_edges == 0 or b.n_edges == 0:
        return SparseAdjacency(n=a.n, edges=np.empty((0, 2), dtype=np.int64))
    # Encode (u, v) pairs as scalars for a fast set intersection.
    key_a = a.edges[:, 0] * a.n + a.edges[:, 1]
    key_b = b.edges[:, 0] * b.n + b.edges[:, 1]
    common = np.intersect1d(key_a, key_b)
    edges = np.stack([common // a.n, common % a.n], axis=1)
    return SparseAdjacency(n=a.n, edges=edges)


@dataclass(frozen=True)
class ComponentLabels:
    labels: np.ndarray
    component_sizes: dict[int, int]

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)


def connected_components(adj: SparseAdjacency) -> ComponentLabels:
    """Components of the graph; ids contiguous from 0, ordered by smallest member."""
    u, v = adj.edges.T
    matrix = sparse.csr_matrix((np.ones(adj.n_edges), (u, v)), shape=(adj.n, adj.n))
    _, roots = csgraph.connected_components(matrix, directed=False)
    _, first_idx, inverse = np.unique(roots, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first_idx))
    labels = order[inverse]
    sizes = {int(c): int(s) for c, s in zip(*np.unique(labels, return_counts=True))}
    return ComponentLabels(labels=labels, component_sizes=sizes)


_MAGIC = b"SADJ"
_HEADER = struct.Struct("<4sQQ")


def dump_adjacency(adj: SparseAdjacency, path) -> None:
    """Binary layout (little-endian): magic 'SADJ', n: u64, m: u64, then m
    (u32, u32) pairs with u < v in lexicographic order."""
    if adj.n >= 2**32:
        raise DataError(f"{path}: {adj.n} vertices do not fit u32 vertex indices")
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, adj.n, adj.n_edges))
        fh.write(adj.edges.astype("<u4").tobytes())


def load_adjacency(path) -> SparseAdjacency:
    """Read a dump_adjacency file, checking its size, edge order and range."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise DataError(f"not an adjacency file: {path}")
    _, n, m = _HEADER.unpack_from(data)
    if len(data) != _HEADER.size + 8 * m:
        raise DataError(f"{path}: {m} edges need {_HEADER.size + 8 * m} bytes, "
                        f"file has {len(data)}")
    edges = np.frombuffer(data, dtype="<u4", offset=_HEADER.size).reshape(m, 2).astype(np.int64)
    u, v = edges.T
    if not (np.all(u < v) and np.all(v < n)):
        raise DataError(f"{path}: edge out of range (need u < v < n={n})")
    if np.any((u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))):
        raise DataError(f"{path}: edges not in strict lexicographic order")
    return SparseAdjacency(n=int(n), edges=edges)
