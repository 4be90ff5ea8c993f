"""Sparse neighborhood graphs: mutual kNN construction, intersection, components.

Graphs are stored as sorted undirected edge arrays over vertex indices;
mutuality and components are computed on scipy.sparse matrices built from
them. Haversine kNN is computed exactly by embedding (lat, lon) on the unit
sphere and querying a kd-tree with chord distance, which is monotone in
great-circle distance.

knn is exact with ties broken by ascending index. It asks the kd-tree for
each point's k+2 nearest, in row blocks. Every point the tree did not return
is at least as far as the ones it did, so a row is settled once its k-th
neighbor is clear of the candidates beyond it by the rounding margin
FP_MARGIN. A row whose self is alone at distance 0 and whose tree distances
each exceed the one before by FP_MARGIN keeps the tree's order as it is:
the margin is far wider than the tree-vs-numpy rounding gap, so numpy's
distances have the same strict order. The other rows are ordered by (numpy
distance, index); rows tied at the cut, or inside a run of duplicate points,
are queried again at double the width until they settle; at width n every
row does.
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
# Rows per kd-tree query block in knn at width k+2, scaled down as the width
# grows; bounds its (rows, width, d) temporaries.
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

    Points are queried for their k+2 nearest, self included, in blocks of
    _BLOCK_ROWS rows; the tree returns each row sorted by its distance. A
    row takes the tree's k non-self entries as they are when self is alone
    at distance 0 and each of the k+1 non-self tree distances exceeds the one
    before by the relative margin FP_MARGIN. That is exact: the margin is
    far wider than the rounding gap between the kd-tree's and numpy's
    distances, so numpy orders those entries the same way, strictly, and a
    point the tree did not return is at least as far as the (k+1)-th
    candidate, so beyond the k-th. Every other row has its candidates'
    distances recomputed with numpy and is ordered by (distance, index) with
    self last. It is settled when self was returned and either every point
    was returned or the farthest non-self candidate lies beyond the k-th by
    FP_MARGIN, by the same argument. Rows left unsettled -- ties at the cut,
    runs of duplicate points -- are queried again at double the width, with
    proportionally fewer rows per block, until none is left.
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
    neighbors = np.empty((n, k), dtype=np.int64)
    cut = np.empty(n)
    unsettled, width = np.arange(n), min(k + 2, n)
    while unsettled.size:
        block, retry = max(1, _BLOCK_ROWS * (k + 2) // width), []
        for start in range(0, unsettled.size, block):
            rows = unsettled[start:start + block]
            dist, idx = tree.query(points[rows], k=width)
            cut[rows] = dist[:, k]
            if width <= k + 2:
                # First width: rows clear of near-ties keep the tree's order.
                clear = (dist[:, 1] > 0) & np.all(
                    dist[:, 2:] > dist[:, 1:-1] * (1 + FP_MARGIN), axis=1)
                neighbors[rows[clear]] = idx[clear, 1:k + 1]
                rows, idx = rows[~clear], idx[~clear]
            # The same per-row reduction as tests/oracle_graph.knn_loop, so the same bits.
            d = np.linalg.norm(points[idx] - points[rows][:, None, :], axis=2)
            is_self = idx == rows[:, None]
            order = np.lexsort((idx, d, is_self), axis=-1)
            idx = np.take_along_axis(idx, order, axis=1)
            d = np.take_along_axis(d, order, axis=1)
            neighbors[rows] = idx[:, :k]
            settled = is_self.any(axis=1)
            if width < n:
                settled &= d[:, width - 2] > d[:, k - 1] * (1 + FP_MARGIN)
            retry.append(rows[~settled])
        unsettled, width = np.concatenate(retry), min(2 * width, n)
    return neighbors, cut


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
    # Encode (u, v) pairs as sorted scalars and look the smaller set up in the
    # larger by binary search (sorting is cheap: edge arrays come sorted).
    small, large = sorted((np.sort(g.edges[:, 0] * g.n + g.edges[:, 1]) for g in (a, b)),
                          key=len)
    common = small[large[np.searchsorted(large, small).clip(max=large.size - 1)] == small]
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
