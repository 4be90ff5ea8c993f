"""The recursive isolation forest, kept as the oracle for iforest.

TreeNode trees grown by recursion and scored by a stack walk, one node at a
time: the package's first construction. iforest.fit_iforest must grow the
same nodes in the same preorder, and iforest.anomaly_scores must return the
same scores bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from spatialcpf.errors import ParameterError
from spatialcpf.iforest import average_path_length


@dataclass(frozen=True)
class TreeNode:
    """Internal node splits on (feature, value); leaves carry the routed size."""
    feature: int = -1
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    size: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class IsolationForestModel:
    trees: tuple[TreeNode, ...]
    subsample_size: int
    n_features: int
    seed: int


def _build_tree(x: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator) -> TreeNode:
    m = x.shape[0]
    if depth >= max_depth or m <= 1:
        return TreeNode(size=m)
    feature = int(rng.integers(0, x.shape[1]))
    col = x[:, feature]
    lo, hi = col.min(), col.max()
    if lo == hi:
        return TreeNode(size=m)
    value = float(rng.uniform(lo, hi))
    mask = col < value
    return TreeNode(
        feature=feature,
        value=value,
        left=_build_tree(x[mask], depth + 1, max_depth, rng),
        right=_build_tree(x[~mask], depth + 1, max_depth, rng),
    )


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
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        if subsample_size <= n:
            idx = rng.choice(n, size=subsample_size, replace=False)
        else:
            idx = rng.choice(n, size=subsample_size, replace=True)
        trees.append(_build_tree(features[idx], 0, max_depth, rng))
    return IsolationForestModel(trees=tuple(trees), subsample_size=subsample_size,
                                n_features=features.shape[1], seed=seed)


def _path_lengths(tree: TreeNode, features: np.ndarray) -> np.ndarray:
    """Leaf depth plus the unsplit-leaf adjustment, for all samples at once."""
    out = np.zeros(features.shape[0])
    stack = [(tree, np.arange(features.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = depth + average_path_length(node.size)
            continue
        mask = features[idx, node.feature] < node.value
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return out


def anomaly_scores(model: IsolationForestModel, features: np.ndarray) -> np.ndarray:
    """Per-sample anomaly score in (0, 1); higher means more isolated."""
    features = np.asarray(features, dtype=float)
    if features.shape[1] != model.n_features:
        raise ParameterError(
            f"feature dimension {features.shape[1]} does not match model ({model.n_features})")
    c_psi = average_path_length(model.subsample_size)
    total = np.zeros(features.shape[0])
    for tree in model.trees:
        total += _path_lengths(tree, features)
    mean_path = total / len(model.trees)
    return np.power(2.0, -mean_path / c_psi)


def preorder(tree: TreeNode) -> list[tuple[int, float, int]]:
    """(feature, value, size) of every node, parent before left before right."""
    out = [(tree.feature, tree.value, tree.size)]
    if not tree.is_leaf:
        out += preorder(tree.left) + preorder(tree.right)
    return out
