"""Per-point kNN loop, the oracle for graph.knn.

The direct construction: query each point's k+1 nearest (self included) for
the cut distance, widen with a ball query to just beyond it, then order
every point's candidates by (distance, index) in a Python loop. graph.knn
must equal it exactly, lists and radii.
"""

import numpy as np
from scipy.spatial import cKDTree


def knn_loop(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) neighbor lists ordered by (distance, index), and the kd-tree's
    (k+1)-th distance of each point, self included."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    tree = cKDTree(points)
    dist, _ = tree.query(points, k=k + 1)
    cut = dist[:, -1]
    # Relative slack keeps exact ties inside the ball despite fp round-off.
    radii = cut * (1 + 1e-12) + 1e-300
    candidates = tree.query_ball_point(points, radii)
    out = []
    for i in range(n):
        cand = np.array([j for j in candidates[i] if j != i], dtype=np.int64)
        d = np.linalg.norm(points[cand] - points[i], axis=1)
        order = np.lexsort((cand, d))
        out.append(cand[order[:k]])
    return np.array(out, dtype=np.int64), cut
