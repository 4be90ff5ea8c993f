"""Isolation Forest anomaly scoring with deterministic per-tree seeding.

Standard formulation: random axis-aligned splits on subsamples, path-length
averaging, scores s(x) = 2^(-E[h(x)] / c(psi)). The flag rule is a
contamination quantile with half-up rounding of the flag count.

The forest is stored as flat node arrays, each tree's nodes in preorder,
and scored one tree at a time, all samples stepping down a level together.

numpy.random is imported on the first fit (_numpy_random) with a stand-in
secrets module, which holds the one name numpy.random binds from secrets
at start-up: the real module would load hashlib and OpenSSL, about 3.7 MiB
of import RSS. Every tree's generator is seeded with explicit entropy, so
the stand-in's randbits is never called.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .stand_ins import import_with, stand_in


@dataclass(frozen=True)
class IsolationForestModel:
    """Every tree's nodes, tree after tree, each in preorder (left subtree
    before right); roots[t] indexes tree t's root. Node i sends a sample
    with x[feature[i]] < threshold[i] to left[i], any other to right[i]. A
    leaf has feature, left and right -1, threshold 0 and size the number of
    subsample rows it holds; an internal node has size 0."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    roots: np.ndarray
    subsample_size: int
    n_features: int
    seed: int


def average_path_length(m: int) -> float:
    """c(m) = 2*H(m-1) - 2*(m-1)/m, the BST average unsuccessful search depth;
    c(1) = 0, c(2) = 1. Exact harmonic numbers."""
    if m <= 1:
        return 0.0
    harmonic = float(np.sum(1.0 / np.arange(1, m)))
    return 2.0 * harmonic - 2.0 * (m - 1) / m


def _numpy_random():
    """The numpy.random module. Imported here first, and with secrets not yet
    imported, it loads with a stand-in secrets (stand_ins.import_with) whose
    randbits is the function secrets binds, SystemRandom's getrandbits; the
    stand-in is taken out again once the import ends. If that import fails,
    the plain import below is taken instead."""
    try:
        return import_with("numpy.random",
                           stand_in("secrets", randbits=random.SystemRandom().getrandbits))
    except ImportError:
        return importlib.import_module("numpy.random")


def _grow(x: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator,
          nodes: list) -> int:
    """Append the tree over the rows of x to nodes in preorder, one
    [feature, threshold, left, right, size] row per node; return its root."""
    at, m = len(nodes), x.shape[0]
    nodes.append([-1, 0.0, -1, -1, m])
    if depth >= max_depth or m <= 1:
        return at
    feature = int(rng.integers(0, x.shape[1]))
    col = x[:, feature]
    lo, hi = col.min(), col.max()
    if lo == hi:
        return at
    value = float(rng.uniform(lo, hi))
    mask = col < value
    nodes[at] = [feature, value, -1, -1, 0]
    nodes[at][2] = _grow(x[mask], depth + 1, max_depth, rng, nodes)
    nodes[at][3] = _grow(x[~mask], depth + 1, max_depth, rng, nodes)
    return at


def fit_iforest(features: np.ndarray, n_trees: int = 100, subsample_size: int = 256,
                seed: int = 0) -> IsolationForestModel:
    """Build n_trees isolation trees on independent seed-derived subsamples.

    Subsampling is without replacement, falling back to with-replacement when
    subsample_size exceeds n. Each tree draws from its own RNG stream keyed by
    (seed, tree index), so results do not depend on build order.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if n_trees < 1:
        raise ParameterError(f"n_trees must be >= 1, got {n_trees}")
    if n < 2 or subsample_size < 2:
        raise ParameterError("need n >= 2 and subsample_size >= 2")
    max_depth = math.ceil(math.log2(subsample_size))
    default_rng = _numpy_random().default_rng
    nodes, roots = [], []
    for t in range(n_trees):
        rng = default_rng([seed, t])
        idx = rng.choice(n, size=subsample_size, replace=subsample_size > n)
        roots.append(_grow(features[idx], 0, max_depth, rng, nodes))
    # The node rows' columns are the model's first five fields, in order.
    return IsolationForestModel(*map(np.array, zip(*nodes)), roots=np.array(roots),
                                subsample_size=subsample_size, n_features=features.shape[1],
                                seed=seed)


def anomaly_scores(model: IsolationForestModel, features: np.ndarray) -> np.ndarray:
    """Per-sample anomaly score in (0, 1); higher means more isolated.

    A sample's path length in a tree is its leaf's depth plus c(leaf size),
    the adjustment for the unsplit rows left there."""
    features = np.asarray(features, dtype=float)
    if features.shape[1] != model.n_features:
        raise ParameterError(
            f"feature dimension {features.shape[1]} does not match model ({model.n_features})")
    adjust = np.array([average_path_length(m) for m in range(model.size.max() + 1)])
    total = np.zeros(features.shape[0])
    for root in model.roots:
        rows = np.arange(features.shape[0])
        node = np.full(rows.size, root)
        depth = 0
        while rows.size:
            leaf = model.feature[node] < 0
            total[rows[leaf]] += depth + adjust[model.size[node[leaf]]]
            rows, node = rows[~leaf], node[~leaf]
            go_left = features[rows, model.feature[node]] < model.threshold[node]
            node = np.where(go_left, model.left[node], model.right[node])
            depth += 1
    mean_path = total / model.roots.size
    return np.power(2.0, -mean_path / average_path_length(model.subsample_size))


def flag_outliers(scores: np.ndarray, contamination: float) -> np.ndarray:
    """Boolean flags for the round_half_up(contamination * n) highest scores;
    ties at the cut go to the lower sample index."""
    if not 0.0 < contamination < 1.0:
        raise ParameterError(f"contamination must be in (0, 1), got {contamination}")
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    m = int(math.floor(contamination * n + 0.5))
    flags = np.zeros(n, dtype=bool)
    if m > 0:
        order = np.lexsort((np.arange(n), -scores))
        flags[order[:m]] = True
    return flags
