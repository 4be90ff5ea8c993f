"""Component-wise peak-finding clustering on an intersected neighborhood graph.

Pipeline inside fit(): one feature-space kNN query with the same k as the
geographic graph yields both the feature mutual kNN graph and the kNN
density radii; intersect the feature graph with the geographic graph, split
into connected components, estimate kNN densities, link each sample to its
nearest higher-density neighbor within its component ("big brother"), pick
cluster centers from the omega/density quantile rule, link the centers
that are close and similarly dense, and label the components of one link
graph -- the big-brother links and the merged center pairs -- by their
centers.
Samples in components smaller than min_component_size are labeled -1. Each
per-component or per-cluster pass takes its samples from group_by_label.

The big-brother step reuses the feature kNN lists: a sample whose nearest
denser same-component list entry lies strictly inside its k-th-neighbor
radius takes that entry, since no sample off the list can be as close. Only
the remaining samples (component peaks, duplicates, ties at the radius) are
measured against their component's denser members, in bounded row blocks,
so no component needs an m-by-m distance matrix. Every feature distance --
a list entry, a fallback block, two centers in merge_clusters -- comes from
one kernel, _distances: squared differences summed column by column in
order, then the square root. So omega does not depend on which pass
measured a pair, and each value equals scipy's cdist for the pair bit for
bit (the tests hold the kernel to cdist; the run imports no scipy distance
code).

Every quantile of a run -- the center rule's here, the summary's quartiles,
the report's degree quartiles -- is taken by sorted_quantiles from values
sorted first, by index arithmetic, equal to np.quantile bit for bit; so no
run loads the numpy.ma module that np.quantile's np.unique reads.

The feature kNN (graph.knn) and the big-brother pass over the kNN lists
run in row blocks on every usable core (graph.map_blocks). Each sample's
result there depends only on its own row, never on the block it falls in,
so the labels do not depend on the thread count.
"""

from __future__ import annotations

import ctypes
import math
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import InternalConsistencyError, ParameterError, check_settings, setting
from .graph import (FP_MARGIN, ComponentLabels, SparseAdjacency, component_roots,
                    connected_components, hadamard_intersect, knn, map_blocks,
                    mutual_graph)

OUTLIER = -1
# Distance entries per fallback block in big_brother (512 KiB of float64, so
# a block and its temporaries stay in cache).
_BLOCK_ENTRIES = 1 << 16
# Samples in flight at once in big_brother's pass over the kNN lists; bounds
# its (rows, k) temporaries.
_LIST_ROWS = 512


@dataclass(frozen=True)
class CpfParams:
    min_samples: int = setting(75, Integral, lambda v: v >= 1, ">= 1")
    rho: float = setting(0.01, Real, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    alpha: float = setting(0.015, Real, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    merge_threshold: float = setting(7.5, Real, lambda v: v >= 0.0, ">= 0")
    density_ratio_threshold: float = setting(0.7, Real, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    # None defaults to min_samples.
    min_component_size: int | None = setting(None, Integral, lambda v: v >= 1, ">= 1")

    def __post_init__(self):
        check_settings(self, "cpf.")

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
        return np.bincount(self.labels[self.labels >= 0]).tolist()


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


def _distances(features: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between features[rows] and features[cols], the
    two index arrays broadcast against each other: the squared differences
    summed column by column in order, then the square root. Written into
    out (of the broadcast shape) when given."""
    if out is None:
        out = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    else:
        out.fill(0.0)
    for column in features.T:
        out += (column[cols] - column[rows]) ** 2
    return np.sqrt(out, out=out)


def big_brother(features: np.ndarray, density: DensityEstimate,
                components: ComponentLabels, neighbors: np.ndarray,
                radius: np.ndarray) -> BigBrother:
    """Nearest strictly-denser same-component neighbor for every sample.

    Samples are ranked by descending density, the lower index first on
    density ties; a candidate qualifies for sample i when it is in i's
    component and ranks above i. The nearest qualifying candidate is i's
    parent and its Euclidean distance is omega[i]; distance ties resolve
    toward the lower index. Each component's top-ranked sample gets parent
    -1 and omega +inf.

    neighbors and radius are graph.knn's (n, k) lists over these features and
    its raw k-th-neighbor distances; the int32 lists are read as they are,
    each block of them widened to int64 on its own. Every sample off i's
    list lies at least radius[i] from i, so when i's nearest qualifying list
    entry is strictly inside radius[i], every qualifying sample that close
    is on the list and the list decides parent and omega. The list pass
    measures each entry once with _distances, as the fallback below does,
    so both give a pair the same value, bit for bit. The kd-tree's radius
    rounds differently, so it is shrunk by FP_MARGIN before the test. This
    list pass runs in row blocks on every usable core with _LIST_ROWS
    samples in flight at once (graph.map_blocks), each block writing only
    its own samples. The rest -- samples without a qualifying list entry,
    with radius 0 (duplicates) or with the nearest entry at the radius --
    are measured with _distances against all denser members of their
    component, in row blocks of about _BLOCK_ENTRIES distances (one row at
    the least) written into one buffer per component, so memory stays
    O(n k + block) rather than O(m^2) for a component of m samples.
    """
    features = np.asarray(features, dtype=float)
    neighbors = np.asarray(neighbors)
    radius = np.asarray(radius, dtype=float)
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

    def list_pass(rows: np.ndarray) -> None:
        """Settle the rows whose nearest qualifying list entry lies inside
        their radius."""
        listed = neighbors[rows].astype(np.int64)
        qualifies = (comp[listed] == comp[rows, None]) & (rank[listed] < rank[rows, None])
        dist = np.where(qualifies, _distances(features, rows[:, None], listed), np.inf)
        best = dist.min(axis=1)
        resolved = best < radius[rows] * (1.0 - FP_MARGIN)
        parent[rows[resolved]] = np.where(dist == best[:, None], listed, n).min(axis=1)[resolved]
        omega[rows[resolved]] = best[resolved]

    map_blocks(list_pass, np.arange(n), _LIST_ROWS)

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
        widest = int(slot[rows[-1]] - lo)
        step = max(1, _BLOCK_ENTRIES // widest)
        buffer = np.empty(step * widest)
        for b in range(0, rows.size, step):
            block = rows[b:b + step]
            width = slot[block] - lo
            cols = grouped[lo:lo + width[-1]]
            dist = _distances(features, block[:, None], cols,
                              out=buffer[:block.size * cols.size].reshape(block.size, cols.size))
            valid = np.arange(cols.size) < width[:, None]
            dist[~valid] = np.inf
            best = dist.min(axis=1)
            parent[block] = np.where(valid & (dist == best[:, None]), cols, n).min(axis=1)
            omega[block] = best
    return BigBrother(parent=parent, omega=omega)


def group_by_label(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each distinct label, ascending, with its members in ascending index
    order (one stable argsort): the grouping of every per-label pass."""
    order = np.argsort(labels, kind="stable")
    ids, starts = np.unique(labels[order], return_index=True)
    return list(zip(ids.tolist(), np.split(order, starts[1:])))


def sorted_quantiles(sorted_values: np.ndarray, qs):
    """np.quantile(sorted_values, qs, axis=0) by its default linear method,
    bit for bit, from values already sorted along axis 0 and holding no NaN,
    by index arithmetic alone: the virtual index (n - 1) * q lies gamma past
    its floor, between that value and the next (both the last where the
    virtual index reaches n - 1), and is interpolated as numpy's _lerp does,
    from the far value where gamma >= 0.5. A scalar q gives a scalar (1-D
    values) or one row. Where -0.0 and 0.0 meet, the sign of a zero may
    differ from np.quantile's, whose partition can order them otherwise.
    Unlike np.quantile, it loads no numpy.ma."""
    n = sorted_values.shape[0]
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    last = virtual >= n - 1
    prev = np.where(last, -1, np.floor(virtual))
    gamma = virtual - prev
    a = sorted_values[prev.astype(np.intp)]
    b = sorted_values[np.where(last, -1, prev + 1).astype(np.intp)]
    gamma = gamma.reshape(gamma.shape + (1,) * (sorted_values.ndim - 1))
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)[()]


def select_centers(density: DensityEstimate, bb: BigBrother,
                   components: ComponentLabels, params: CpfParams) -> np.ndarray:
    """Centers per qualifying component: omega above the (1 - alpha)-quantile
    of finite omegas (or +inf) and density at or above the rho-quantile."""
    centers = []
    for _, members in group_by_label(components.labels):
        if members.size < params.component_size_floor:
            continue
        omegas = bb.omega[members]
        dens = density.log_density[members]
        far = np.isinf(omegas)
        if not far.all():
            far |= omegas > sorted_quantiles(np.sort(omegas[~far]), 1.0 - params.alpha)
        centers.extend(
            members[far & (dens >= sorted_quantiles(np.sort(dens), params.rho))].tolist())
    return np.array(sorted(centers), dtype=np.int64)


def merge_clusters(centers: np.ndarray, density: DensityEstimate, features: np.ndarray,
                   params: CpfParams) -> np.ndarray:
    """The merged center pairs: an (m, 2) array of sample indices (a, b),
    a < b, of centers (ascending, as select_centers gives them) no farther
    apart than merge_threshold in feature space with a density ratio
    exp(-|log density a - log density b|) of at least
    density_ratio_threshold. Empty when there are fewer than two centers or
    merge_threshold is 0."""
    if centers.size < 2 or params.merge_threshold == 0.0:
        return np.empty((0, 2), dtype=np.int64)
    features = np.asarray(features, dtype=float)
    dens = density.log_density[centers]
    ratio = np.exp(-np.abs(dens[:, None] - dens[None, :]))
    linked = (_distances(features, centers[:, None], centers) <= params.merge_threshold) & (
        ratio >= params.density_ratio_threshold)
    return centers[np.argwhere(np.triu(linked, 1))]


def assign_clusters(bb: BigBrother, centers: np.ndarray, merged: np.ndarray,
                    components: ComponentLabels, params: CpfParams) -> ClusterLabeling:
    """Label each sample with the cluster its big-brother chain reaches;
    small components hold no center, so their samples stay -1.

    Clusters are the components of one link graph: each non-center sample
    with a parent links to it, and each merged center pair (merge_clusters)
    links its two centers. graph.component_roots labels the components, and
    each component holding a center is a cluster. Clusters are numbered by
    descending size, ties going to the one whose root (smallest member) is
    lower. A component without a center (chains ending off every center, or
    a parent cycle) stays -1, and a qualifying sample in one raises
    InternalConsistencyError.
    """
    n = components.n
    chained = bb.parent >= 0
    chained[centers] = False
    links = np.flatnonzero(chained)
    root = component_roots(n, np.concatenate((np.column_stack((links, bb.parent[links])),
                                              merged)))
    held = np.flatnonzero(np.bincount(root[centers], minlength=n))
    by_size = held[np.argsort(-np.bincount(root)[held], kind="stable")]
    cluster = np.full(n, OUTLIER, dtype=np.int64)
    cluster[by_size] = np.arange(held.size)
    labels = cluster[root]
    qualifying = np.bincount(components.labels)[components.labels] >= params.component_size_floor
    stranded = np.flatnonzero(qualifying & (labels == OUTLIER))
    if stranded.size:
        raise InternalConsistencyError(
            f"big-brother chain from sample {stranded[0]} does not reach a center")
    return ClusterLabeling(labels=labels)


@dataclass(frozen=True)
class FitResult:
    """fit's outputs; centers are select_centers' picks, and labeling numbers
    the components of one link graph (the big-brother links and
    merge_clusters' center pairs) that hold one, so centers may share a
    cluster; feature_edges counts the feature-space mutual kNN graph's
    edges, seconds holds the wall time of each phase, by name, and
    peak_rss_mib the process's peak RSS in MiB as it stood at the end of
    each phase."""
    labeling: ClusterLabeling
    components: ComponentLabels
    density: DensityEstimate
    big_brother: BigBrother
    centers: np.ndarray
    intersected: SparseAdjacency
    feature_edges: int
    seconds: dict[str, float] = field(default_factory=dict)
    peak_rss_mib: dict[str, float] = field(default_factory=dict)


def peak_rss_mib() -> float:
    """The process's peak resident set size so far (ru_maxrss is in bytes on
    macOS, in KiB elsewhere)."""
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def _find_malloc_trim():
    """glibc's malloc_trim, or None where the C library has no such symbol."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def release_memory() -> None:
    """Give the heap pages malloc holds free back to the OS (malloc_trim(0),
    every arena); a no-op where the C library has no malloc_trim. glibc
    raises its mmap threshold each time a large block is freed, so later
    numpy temporaries come from the heaps, whose freed pages stay resident
    until trimmed: without this, RSS climbs stage after stage by memory no
    step still holds."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def fit(features: np.ndarray, geo_adj: SparseAdjacency, params: CpfParams) -> FitResult:
    """Full spatially-constrained CPF run; see module docstring for the phases.
    Each phase is timed under its name in FitResult.seconds, and the peak
    RSS at its end recorded in FitResult.peak_rss_mib: knn, mutual,
    intersect, components, density, big_brother, centers, merge, assign.
    After each phase the freed heap is given back (release_memory), so a
    phase whose peak exceeds the one before it raised it by its own live
    memory, not by what earlier phases freed."""
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if geo_adj.n != n:
        raise ParameterError(f"geo graph has {geo_adj.n} vertices, features have {n}")
    if n <= params.min_samples:
        raise ParameterError(f"n={n} must exceed min_samples={params.min_samples}")

    seconds, peak_rss = {}, {}

    def timed(phase: str, func, *args):
        """func(*args), its wall time and the peak RSS at its end recorded
        under phase; then the freed heap is released."""
        start = time.perf_counter()
        result = func(*args)
        seconds[phase] = time.perf_counter() - start
        peak_rss[phase] = peak_rss_mib()
        release_memory()
        return result

    neighbors, radius = timed("knn", knn, features, params.min_samples)
    feature_graph = timed("mutual", mutual_graph, neighbors)
    intersected = timed("intersect", hadamard_intersect, feature_graph, geo_adj)
    feature_edges = feature_graph.n_edges
    del feature_graph  # not held through components and big brother
    components = timed("components", connected_components, intersected)
    density = timed("density", knn_density, radius, features.shape[1], params)
    bb = timed("big_brother", big_brother, features, density, components, neighbors, radius)
    centers = timed("centers", select_centers, density, bb, components, params)
    merged = timed("merge", merge_clusters, centers, density, features, params)
    labeling = timed("assign", assign_clusters, bb, centers, merged, components, params)
    return FitResult(labeling=labeling, components=components, density=density,
                     big_brother=bb, centers=centers, intersected=intersected,
                     feature_edges=feature_edges, seconds=seconds, peak_rss_mib=peak_rss)
