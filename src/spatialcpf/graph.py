"""Sparse neighborhood graphs: mutual kNN construction, intersection, components.

Graphs are stored as sorted undirected edge arrays over vertex indices.
Vertex ids are int32 (VERTEX) everywhere in this module: knn's lists and
every graph's edges, so a graph has at most MAX_VERTICES = 2^31 vertices.
Mutuality and intersection sort edge keys u * n + v and keep the keys that
occur twice (_shared_edges); components are labelled by hooking and pointer
jumping in numpy (component_roots), with no sparse matrix.
Every key is below n^2, so keys are of the narrowest unsigned type that
holds n^2 - 1 (_key_type: uint32 for 256 < n <= 65,536, uint64 above it
up to MAX_VERTICES), and every product that forms one is taken in that type,
given explicitly; ids are below n, so no product or sum wraps. Each
builder writes its keys into one preallocated array of that type and
sorts it in place; _shared_edges then writes the int32 edges from the
sorted keys a chunk at a time. So beside its input and output a builder
holds that array and a one-byte mask per key, never a second array of the
keys' size.
Haversine kNN is computed exactly by embedding (lat, lon) on the unit sphere
and querying a kd-tree with chord distance, monotone in great-circle distance.

knn is exact with ties broken by ascending index. Its kd-tree holds the
points centred and rotated onto their principal axes, so the tree's
axis-aligned splits follow correlated data, such as element
concentrations; the tree only proposes candidates. A rotation changes no distance,
and its rounding is bounded (_rotation_slack), so every test on the
rotated tree's distances is widened by that slack, and no result depends
on the rotation or on the eigenvectors a LAPACK build returns. The tree is
asked for each point's k+2 nearest, in row blocks. Every point the tree
did not return is at least as far as the ones it did, so a row is settled
once its k-th neighbor is clear of the candidates beyond it by the rounding
margin FP_MARGIN plus the slack. A row whose self is alone at distance 0
and whose tree distances each exceed the one before by that much keeps the
tree's order as it is: numpy's distances on the original points have the
same strict order. The other rows are ordered by (numpy distance, index);
rows tied at the cut, or inside a run of duplicate points, are queried
again at double the width until they settle; at width n every row does.
The radius knn returns is the distance a kd-tree on the original points
reports, which sums the squares in its own order; _tree_distance
reproduces it bit for bit, so the radius, too, is the unrotated one.
The rotation's matrix products are taken with np.einsum, whose own loops
call no BLAS: a BLAS library's buffers would raise the peak RSS, and its
worker threads would spin on the cores the kNN threads need.

Each row's neighbors depend only on the tree and the row, so the row blocks
of each width run on every usable core (map_blocks; cKDTree releases the GIL
while it queries). The rows in flight at once are fixed and split among the
threads, so memory does not grow with the core count. A block writes only
its own rows, and the rows left unsettled are gathered in block order, so
the result does not depend on the thread count or on how the rows are split.

cKDTree is taken from scipy's kd-tree extension module, imported
(_load_ckdtree) while a stand-in scipy.spatial package that holds only the
real package's __path__ is registered (stand_ins.import_with). So the
package's __init__, which also loads qhull, scipy.linalg, scipy.special and
the distance module (about 15 MiB of import RSS that no run uses), never
runs. The extension's own imports of scipy.sparse and scipy._lib._util meet
stand-ins too, which spare another 20 MiB and some 280 modules: the
extension reads scipy.sparse only inside sparse_distance_matrix, where
scipy's own lazy import brings in the real package, and takes from _util
only copy_if_needed. Where the extension is not found or fails to import,
the public import serves the same class.
"""

from __future__ import annotations

import importlib.util
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .fileio import atomic_open
from .stand_ins import import_with, stand_in


def _load_ckdtree() -> type:
    """scipy's cKDTree class, from the extension module scipy.spatial._ckdtree
    imported without running the scipy.spatial package: the import meets a
    stand-in scipy.spatial (stand_ins.import_with) whose __path__ is the real
    package's, so the import system finds the extension where scipy put it.
    The module name is a scipy internal: where scipy.spatial or the
    extension is not found, or the import raises ImportError, the class
    comes from `from scipy.spatial import cKDTree`, the same class at the
    cost of the package's imports (or the ModuleNotFoundError of a missing
    scipy). The extension stays registered under its own name, so a later
    import of scipy.spatial, the real package once the stand-in is gone,
    takes this same module (and class) from sys.modules, and one
    scipy.spatial already imported is used as it is.

    scipy.sparse and scipy._lib._util, each unless already imported, are
    stand-ins as well while the extension runs. Its `import scipy.sparse`
    binds only the scipy package, whose lazy attribute imports the real
    scipy.sparse in sparse_distance_matrix.
    The _util stand-in holds a copy of copy_if_needed, the one name the
    extension takes from it at start-up, because forwarding it would import
    the real _util and all it pulls in. The copy follows scipy's own rule
    (None for numpy >= 2.0.0, else False), so the extension holds the value
    the real module would give it."""
    try:
        spec = importlib.util.find_spec("scipy.spatial")
        if spec is not None:
            copy_if_needed = None if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False
            return import_with("scipy.spatial._ckdtree",
                               stand_in("scipy.spatial", __path__=spec.submodule_search_locations),
                               stand_in("scipy.sparse"),
                               stand_in("scipy._lib._util", copy_if_needed=copy_if_needed)).cKDTree
    except ImportError:
        pass
    from scipy.spatial import cKDTree
    return cKDTree


cKDTree = _load_ckdtree()

# Relative slack between the kd-tree's distances and numpy's, which sum the
# squares in different orders; far wider than their actual gap. knn adds
# the absolute _rotation_slack to it for its tree on rotated points.
FP_MARGIN = 1e-9
# Rows in flight at once in knn at width k+2, scaled down as the width
# grows; bounds its (rows, width, d) temporaries.
_BLOCK_ROWS = 512
# Vertex ids, and the most vertices they can number.
VERTEX = np.int32
MAX_VERTICES = 2**31
# Sorted keys per chunk that _shared_edges turns into edges; bounds its
# temporary of the shared keys to 256 KiB at 32 bits, 512 KiB at 64.
_KEY_CHUNK = 1 << 16
# Threads map_blocks runs on at most: the cores this process may use.
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_blocks(func, rows, budget: int) -> list:
    """[func(block) for block in consecutive blocks of rows], the calls
    spread over min(THREADS, budget) threads; results in block order. Each
    block holds budget // threads rows, so at most budget (>= 1) rows are in
    flight at once whatever the thread count. An exception a call raises
    reaches the caller as it is (of several, the earliest block's). Each
    call must write only its own block's rows of any shared output."""
    threads = min(THREADS, budget)
    step = budget // threads
    blocks = [rows[start:start + step] for start in range(0, len(rows), step)]
    if not blocks:
        return []
    with ThreadPoolExecutor(min(threads, len(blocks))) as pool:
        return list(pool.map(func, blocks))


@dataclass(frozen=True)
class SparseAdjacency:
    """Undirected graph over n <= MAX_VERTICES vertices; edges as an (m, 2)
    int32 (VERTEX) array with u < v, lexicographically sorted, no
    self-loops, no duplicates. Raises ParameterError for a larger n, or for
    an id given in a wider type that int32 cannot hold."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        _check_vertex_count(self.n)
        edges = np.asarray(self.edges).reshape(-1, 2)
        if edges.dtype != VERTEX:
            bounds = np.iinfo(VERTEX)
            if edges.size and not bounds.min <= edges.min() <= edges.max() <= bounds.max:
                raise ParameterError("edge vertex id out of the int32 range")
            edges = edges.astype(VERTEX)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edges}


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ParameterError(f"{n} vertices exceed the {MAX_VERTICES} that int32 vertex ids "
                             "can number")


def _sphere_embed(latlon: np.ndarray) -> np.ndarray:
    lat = np.radians(latlon[:, 0])
    lon = np.radians(latlon[:, 1])
    return np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1
    )


def _principal_axes(centred: np.ndarray) -> np.ndarray:
    """(d, d) orthonormal columns: the eigenvectors of the centred points'
    scatter matrix. The points are scaled to at most 1 first, so the
    scatter stays finite wherever their squared distances do."""
    scale = np.abs(centred).max() or 1.0
    scaled = centred / scale
    return np.linalg.eigh(np.einsum("ij,ik->jk", scaled, scaled))[1]


def _rotation_slack(centred: np.ndarray, axes: np.ndarray) -> float:
    """The absolute margin by which two distances between points rotated by
    the computed axes V must differ for numpy's distances between the
    original points to differ the same way.

    With r the largest norm of a centred point, d the dimension, u = eps / 2
    the unit roundoff and w the largest entry of |V^T V - I| as computed,
    rotating in floating point changes each distance by at most, to first
    order in eps,

        e = r ((1 + d sqrt(d) + d^2) eps + 2 d w):

    centring rounds each point by u r; the d-term products of the matrix
    product add d u |c| |V| <= d sqrt(d) u r per point; and V's departure
    from orthogonality scales a distance of at most 2 r by at most
    ||V^T V - I||_2 <= d (w + d u), the d u covering the rounding of the
    computed V^T V. Squares below the smallest normal float round by up to
    2^-1075 each, not relatively, so a distance summed from d of them, in
    the tree or in numpy, is off by up to v = sqrt(d 2^-1074) whatever its
    size. The slack is 2 (e + 2 v), as two distances are compared, each
    against numpy's; the second-order terms lie far inside FP_MARGIN of any
    distance above it.
    """
    d = centred.shape[1]
    off_orthogonal = np.abs(np.einsum("ji,jk->ik", axes, axes) - np.eye(d)).max()
    r = np.linalg.norm(centred, axis=1).max()
    rotation = r * ((1 + d * np.sqrt(d) + d * d) * np.finfo(float).eps + 2 * d * off_orthogonal)
    return 2 * (rotation + 2 * np.sqrt(d * 2.0 ** -1074))


def _tree_distance(diff: np.ndarray) -> np.ndarray:
    """The Euclidean norm along the last axis as cKDTree computes it, bit
    for bit: one accumulator per column of each group of four, the four
    summed left to right, then each leftover column added in turn, then the
    square root. numpy's norm sums in another order and differs from it in
    the last bit for about a fifth of 15-D pairs."""
    squares = diff * diff
    d = squares.shape[-1]
    whole = d - d % 4
    acc = np.zeros(squares.shape[:-1] + (4,))
    for start in range(0, whole, 4):
        acc += squares[..., start:start + 4]
    total = ((acc[..., 0] + acc[..., 1]) + acc[..., 2]) + acc[..., 3]
    for col in range(whole, d):
        total += squares[..., col]
    return np.sqrt(total)


def knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors per point, ties broken by ascending index.

    Returns an (n, k) int32 (VERTEX) index array, each row ordered by (distance,
    index), and each point's k-th-neighbor radius: the (k+1)-th distance,
    self included, that a kd-tree on the points as given reports.

    The kd-tree is built on the points centred and rotated onto their
    principal axes (_principal_axes); the centred copy is dropped once
    rotated. Every product of the rotation goes through np.einsum, not
    BLAS. The tree's distances differ from numpy's on the original
    points by rounding, which _rotation_slack bounds, so every test on them
    below adds that slack to the relative margin FP_MARGIN.

    Points are queried for their k+2 nearest, self included, in row blocks
    with _BLOCK_ROWS rows in flight at once (map_blocks splits them among
    the threads); the tree returns each row sorted by its distance. A row
    takes the tree's k non-self entries as they are when each of its k+2
    tree distances after the first exceeds the one before by FP_MARGIN plus
    slack, so that self is alone at distance 0. That is exact: the two
    margins together are far wider than the gap between the rotated tree's
    distances and numpy's on the original points, so numpy orders those
    entries the same way, strictly, and a point the tree did not return is
    at least as far as the (k+1)-th candidate, so beyond the k-th. Every
    other row has its candidates' distances recomputed with numpy on the
    original points and is ordered by (distance, index) with self last. It
    is settled when self was returned and either every point was returned
    or the farthest non-self candidate lies beyond the k-th by FP_MARGIN
    plus slack, by the same argument. Rows left unsettled -- ties at the
    cut, runs of duplicate points -- are queried again at double the width,
    with proportionally fewer rows in flight, until none is left. Each block
    writes only its own rows.

    The radius keeps the bits of the unrotated tree: _tree_distance sums
    the squares on the original points in that tree's order. A clear row
    takes it for its k-th neighbor; any other row takes the (k+1)-th
    smallest over its candidates, self included, which hold every point
    that near once the row is settled.

    Raises ParameterError for more than MAX_VERTICES points, and DataError
    for non-finite points, or for points spread so widely that their
    squared distances overflow (the tree would report such a neighbor as
    missing).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    _check_vertex_count(n)
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ParameterError(f"k={k} must be < n={n}")
    if not np.all(np.isfinite(points)):
        raise DataError("non-finite coordinates")
    low = points.min(axis=0)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum((points.max(axis=0) - low) ** 2)):
            raise DataError("coordinates spread too widely: their squared distances "
                            "overflow")
    # The mean taken from the lowest corner, so it cannot overflow.
    centred = points - (low + np.mean(points - low, axis=0))
    axes = _principal_axes(centred)
    slack = _rotation_slack(centred, axes)
    rotated = np.einsum("ij,jk->ik", centred, axes)
    del centred
    tree = cKDTree(rotated)
    neighbors = np.empty((n, k), dtype=VERTEX)
    cut = np.empty(n)

    def query(rows: np.ndarray) -> np.ndarray:
        """Write the block's rows of neighbors and cut at the current width;
        return the rows still unsettled."""
        dist, idx = tree.query(rotated[rows], k=width)
        if width <= k + 2:
            # First width: rows clear of near-ties keep the tree's order.
            clear = np.all(dist[:, 1:] > dist[:, :-1] * (1 + FP_MARGIN) + slack, axis=1)
            neighbors[rows[clear]] = idx[clear, 1:k + 1]
            cut[rows[clear]] = _tree_distance(points[rows[clear]] - points[idx[clear, k]])
            rows, idx = rows[~clear], idx[~clear]
        diff = points[idx] - points[rows][:, None, :]
        cut[rows] = np.partition(_tree_distance(diff), k, axis=1)[:, k]
        # The same per-row reduction as tests/oracle_graph.knn_loop, so the same bits.
        d = np.linalg.norm(diff, axis=2)
        is_self = idx == rows[:, None]
        order = np.lexsort((idx, d, is_self), axis=-1)
        idx = np.take_along_axis(idx, order, axis=1)
        d = np.take_along_axis(d, order, axis=1)
        neighbors[rows] = idx[:, :k]
        settled = is_self.any(axis=1)
        if width < n:
            settled &= d[:, width - 2] > d[:, k - 1] * (1 + FP_MARGIN) + slack
        return rows[~settled]

    unsettled, width = np.arange(n), min(k + 2, n)
    while unsettled.size:
        retry = map_blocks(query, unsettled, max(1, _BLOCK_ROWS * (k + 2) // width))
        unsettled, width = np.concatenate(retry), min(2 * width, n)
    return neighbors, cut


def _key_type(n: int) -> np.dtype:
    """The narrowest unsigned type that holds every key u * n + v of ids
    u, v < n, that is n^2 - 1: uint8 up to n = 16, uint16 up to 256, uint32
    up to 65,536, uint64 above it. It depends on n alone."""
    return np.min_scalar_type(max(n * n - 1, 0))


def _shared_edges(n: int, keys: np.ndarray) -> SparseAdjacency:
    """Graph over n vertices of the edges u < v whose key u * n + v occurs
    twice in keys, of _key_type(n), which hold no key more than twice;
    sorts keys in place. Beside keys it holds a byte per key (the equality
    mask), the int32 edges (8 bytes per edge) and, while it writes them,
    the shared keys of one _KEY_CHUNK of the sorted keys. Each key is below
    n^2, so its quotient and remainder by n are ids below n."""
    keys.sort()
    shared = keys[1:] == keys[:-1]
    edges = np.empty((np.count_nonzero(shared), 2), dtype=VERTEX)
    done = 0
    for start in range(0, shared.size, _KEY_CHUNK):
        stop = start + _KEY_CHUNK
        twice = keys[start + 1:stop + 1][shared[start:stop]]
        part = edges[done:done + twice.size]
        np.divmod(twice, keys.dtype.type(n), out=(part[:, 0], part[:, 1]))
        done += twice.size
    return SparseAdjacency(n=n, edges=edges)


def mutual_graph(neighbors: np.ndarray) -> SparseAdjacency:
    """Mutual graph of an (n, k) array whose rows each list k distinct other
    vertices: edge (i, j) iff j is in row i and i is in row j, that is, iff
    the pair's key min * n + max is listed twice. The keys are written into
    one (n, k) array of _key_type(n), _BLOCK_ROWS rows at a time: each
    block of lists is converted to that type and combined with row ids of
    that type, so every key is formed in it whatever the lists' type; as
    min < n and max < n, min * n + max < n^2 never wraps. No other array of
    the lists' size is alive while the keys are formed."""
    n = neighbors.shape[0]
    key = _key_type(n)
    keys = np.empty(neighbors.shape, dtype=key)
    for start in range(0, n, _BLOCK_ROWS):
        ids, out = neighbors[start:start + _BLOCK_ROWS].astype(key), keys[start:start + _BLOCK_ROWS]
        row = np.arange(start, start + ids.shape[0], dtype=key)[:, None]
        np.minimum(ids, row, out=out)
        np.maximum(ids, row, out=ids)
        out *= key.type(n)
        out += ids
    return _shared_edges(n, keys.ravel())


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
    """Edge-wise intersection of two graphs over the same vertex set, in
    whatever order each lists its edges. Both graphs' keys are written into
    one array of _key_type(n), which _shared_edges sorts in place. The
    int32 ids are cast to that type inside the product and the sum, which
    are taken in it (an int32 product would wrap); the cast is exact, as
    0 <= u < v < n, and u * n + v < n^2 never wraps."""
    if a.n != b.n:
        raise ParameterError(f"vertex count mismatch: {a.n} != {b.n}")
    key = _key_type(a.n)
    keys = np.empty(a.n_edges + b.n_edges, dtype=key)
    for part, g in zip(np.split(keys, [a.n_edges]), (a, b)):
        np.multiply(g.edges[:, 0], key.type(g.n), out=part, dtype=key, casting="unsafe")
        np.add(part, g.edges[:, 1], out=part, dtype=key, casting="unsafe")
    return _shared_edges(a.n, keys)


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


def component_roots(n: int, edges: np.ndarray) -> np.ndarray:
    """Each vertex's component's smallest member, as an int32 array of n.

    edges is an (m, 2) array of ids below n, in either order, self-loops
    and repeats allowed. Each round replaces every edge by its endpoints'
    roots, drops the edges whose roots already agree, hooks each remaining
    edge's larger root onto the smallest root it is joined to, then
    pointer-jumps every vertex to its root (root = root[root] until no
    change). No vertex ever points above itself or out of its component,
    and each round hooks at least one root, so the rounds end, with each
    component's vertices all pointing at its smallest member.
    """
    root = np.arange(n, dtype=VERTEX)
    u, v = np.asarray(edges).reshape(-1, 2).T
    while True:
        u, v = root[u], root[v]
        cross = u != v
        if not cross.any():
            return root
        u, v = np.minimum(u[cross], v[cross]), np.maximum(u[cross], v[cross])
        np.minimum.at(root, v, u)
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def connected_components(adj: SparseAdjacency) -> ComponentLabels:
    """Components of the graph; ids contiguous from 0, ordered by smallest member."""
    _, labels, counts = np.unique(component_roots(adj.n, adj.edges), return_inverse=True,
                                  return_counts=True)
    sizes = dict(enumerate(counts.tolist()))
    return ComponentLabels(labels=labels, component_sizes=sizes)


_MAGIC = b"SADJ"
_HEADER = struct.Struct("<4sQQ")


def dump_adjacency(adj: SparseAdjacency, path) -> None:
    """Binary layout (little-endian): magic 'SADJ', n: u64, m: u64, then m
    (u32, u32) pairs with u < v in lexicographic order."""
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, adj.n, adj.n_edges))
        fh.write(np.ascontiguousarray(adj.edges, dtype="<u4"))


def load_adjacency(path) -> SparseAdjacency:
    """Read a dump_adjacency file, checking its size, vertex count, edge
    order and range; the u32 pairs are narrowed to int32 only once checked
    to lie in u < v < n <= MAX_VERTICES."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise DataError(f"not an adjacency file: {path}")
    _, n, m = _HEADER.unpack_from(data)
    if n > MAX_VERTICES:
        raise DataError(f"{path}: {n} vertices exceed the {MAX_VERTICES} that int32 vertex ids "
                        "can number")
    if len(data) != _HEADER.size + 8 * m:
        raise DataError(f"{path}: {m} edges need {_HEADER.size + 8 * m} bytes, "
                        f"file has {len(data)}")
    pairs = np.frombuffer(data, dtype="<u4", offset=_HEADER.size).reshape(m, 2)
    u, v = pairs.T
    if not (np.all(u < v) and np.all(v < n)):
        raise DataError(f"{path}: edge out of range (need u < v < n={n})")
    if np.any((u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))):
        raise DataError(f"{path}: edges not in strict lexicographic order")
    return SparseAdjacency(n=int(n), edges=pairs.astype(VERTEX))
