import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracle_graph import knn_loop
from spatialcpf import graph
from spatialcpf.errors import DataError, ParameterError, SpatialCpfError
from spatialcpf.graph import (SparseAdjacency, connected_components,
                              dump_adjacency, hadamard_intersect, knn,
                              load_adjacency, mutual_knn_graph)


def brute_force_mutual_knn(points, k):
    """Quadratic oracle: full distance matrix, neighbor lists sorted by
    (distance, index), mutuality check."""
    n = len(points)
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    neighbor_sets = []
    for i in range(n):
        order = sorted((dist[i, j], j) for j in range(n) if j != i)
        neighbor_sets.append({j for _, j in order[:k]})
    edges = set()
    for i in range(n):
        for j in neighbor_sets[i]:
            if i in neighbor_sets[j]:
                edges.add((min(i, j), max(i, j)))
    return edges


def bfs_components(n, edge_set):
    adj = [[] for _ in range(n)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * n
    comp = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = comp
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = comp
                    queue.append(v)
        comp += 1
    return labels


def make_graph(n, edges):
    return SparseAdjacency(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))


def test_collinear_k1_mutuality():
    pts = np.array([[0.0], [1.0], [3.0]])
    adj = mutual_knn_graph(pts, k=1)
    assert adj.edge_set() == {(0, 1)}


def test_k_equals_n_minus_1_complete():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(8, 3))
    adj = mutual_knn_graph(pts, k=7)
    assert adj.edge_set() == {(i, j) for i in range(8) for j in range(i + 1, 8)}


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=(200, 2))
    adj = mutual_knn_graph(pts, k=5)
    assert adj.edge_set() == brute_force_mutual_knn(pts, 5)


def test_tie_breaking_on_grid():
    # 3x3 unit grid: many exact distance ties; compare with the oracle,
    # which uses the same lower-index-first rule.
    pts = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    for k in (1, 2, 3, 5):
        assert mutual_knn_graph(pts, k=k).edge_set() == brute_force_mutual_knn(pts, k)
    # Small integer lattices: ties at every distance and duplicated points.
    rng = np.random.default_rng(7)
    for n in range(3, 41):
        pts = rng.integers(0, 4, (n, 2)).astype(float)
        for k in sorted({1, int(rng.integers(1, n)), n - 1}):
            adj = mutual_knn_graph(pts, k=k)
            expected = brute_force_mutual_knn(pts, k)
            assert adj.edge_set() == expected, (n, k)
            assert list(connected_components(adj).labels) == bfs_components(n, expected)


def _tied_at_cut(points, k):
    """Rows whose k-th and (k+1)-th nearest non-self distances are equal
    (always empty when k + 2 >= n, where knn sees every point)."""
    n = len(points)
    if k + 2 >= n:
        return set()
    dist = np.sort(np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2), axis=1)
    # Column 0 is a zero: self, or a duplicate standing in for it.
    return set(np.flatnonzero(dist[:, k] == dist[:, k + 1]).tolist())


@pytest.mark.parametrize("block", [1, 7, graph._BLOCK_ROWS])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.sampled_from([1, 2, 3, 15]),
       points=st.sampled_from(["random", "tenths", "lattice", "runs"]),
       k_pick=st.sampled_from(["one", "random", "n-1"]))
def test_knn_matches_loop_oracle(block, seed, n, d, points, k_pick):
    rng = np.random.default_rng(seed)
    k = {"one": 1, "random": int(rng.integers(1, n)), "n-1": n - 1}[k_pick]
    if points == "random":
        pts = rng.normal(size=(n, d))
    elif points == "tenths":
        # Ties in exact arithmetic that rounding may split by an ulp.
        pts = rng.integers(0, 3, (n, d)) * 0.1
    elif points == "lattice":
        # A small integer lattice: duplicated points and exactly equal distances.
        pts = rng.integers(0, 4, (n, d)).astype(float)
    else:
        # Interleaved copies of one to three points: runs of k+2 or more
        # duplicates, which widen the query up to every point.
        pts = rng.normal(size=(3, d))[rng.integers(0, rng.integers(1, 4), n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_ROWS", block)
        neighbors, radius = knn(pts, k)
    want_neighbors, want_radius = knn_loop(pts, k)
    np.testing.assert_array_equal(neighbors, want_neighbors)
    np.testing.assert_array_equal(radius, want_radius)


def _near_tied(points, k):
    """Rows with two of their k+2 nearest distances, self included, within
    the relative margin FP_MARGIN of each other (brute force)."""
    dist = np.sort(np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2), axis=1)
    head = dist[:, :k + 2]
    return np.any(head[:, 1:] <= head[:, :-1] * (1 + graph.FP_MARGIN), axis=1)


@pytest.mark.parametrize("block", [1, 7, graph._BLOCK_ROWS])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 15]),
       tied=st.sampled_from(["tenths", "duplicates"]))
def test_knn_mixed_tied_and_clear_rows_match_loop_oracle(block, seed, d, tied):
    # Near-tied rows interleaved with clear ones, so one block holds both:
    # the clear rows keep the kd-tree's order, the tied ones are recomputed.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 20))
    clean = rng.normal(size=(int(rng.integers(k + 2, 60)), d)) + 100.0
    if tied == "tenths":
        group = rng.integers(0, 3, (int(rng.integers(k + 2, 60)), d)) * 0.1
        group = np.concatenate([group, group[:1]])
    else:
        # Like 21 identical concentration rows among distinct ones.
        group = np.repeat(rng.normal(size=(1, d)), int(rng.integers(2, 2 * k + 4)), axis=0)
    pts = np.concatenate([clean, group])
    pts = pts[rng.permutation(len(pts))]
    near = _near_tied(pts, k)
    assert near.any() and not near.all()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_ROWS", block)
        neighbors, radius = knn(pts, k)
    want_neighbors, want_radius = knn_loop(pts, k)
    np.testing.assert_array_equal(neighbors, want_neighbors)
    np.testing.assert_array_equal(radius, want_radius)


@pytest.mark.parametrize("block", [1, 7, graph._BLOCK_ROWS])
def test_knn_fallback_resolves_lattice_ties(block):
    rng = np.random.default_rng(11)
    tied = 0
    for n in range(3, 41):
        for d in (1, 2, 3):
            pts = rng.integers(0, 4, (n, d)).astype(float)
            for k in sorted({1, int(rng.integers(1, n)), n - 1}):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(graph, "_BLOCK_ROWS", block)
                    got = knn(pts, k)
                want = knn_loop(pts, k)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                tied += len(_tied_at_cut(pts, k))
    # Rows tied at the cut cannot settle at width k+2, so the widening ran.
    assert tied > 1000


def test_knn_duplicate_run_memory_bounded():
    # Every point at one location: each row's candidates are all at distance
    # zero, so the query widens to every point. A per-point ball query holds
    # n candidate lists of n Python ints, about 31 MiB here.
    n, k = 1000, 5
    tracemalloc.start()
    try:
        neighbors, radius = knn(np.zeros((n, 2)), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    lowest = np.arange(k + 1)
    want = np.array([lowest[lowest != i][:k] for i in range(n)])
    np.testing.assert_array_equal(neighbors, want)
    np.testing.assert_array_equal(radius, np.zeros(n))


def test_knn_matches_loop_oracle_on_itm_grid():
    # The survey's regular 2 km sampling grid in ITM meters: every point has
    # many equidistant neighbors, so most rows are tied at the cut.
    easting, northing = np.meshgrid(480000.0 + 2000.0 * np.arange(62),
                                    600000.0 + 2000.0 * np.arange(69), indexing="ij")
    pts = np.column_stack([easting.ravel(), northing.ravel()])
    assert len(pts) == 4278
    got = knn(pts, 75)
    want = knn_loop(pts, 75)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_knn_margin_covers_kd_tree_rounding():
    # A lattice of tenths in 15-D: the kd-tree and numpy sum the squares in
    # different orders, so the two disagree in the last bits on near-ties.
    rng = np.random.default_rng(3)
    disagree = 0
    for _ in range(50):
        pts = rng.integers(0, 3, (40, 15)) * 0.1
        k = int(rng.integers(1, 39))
        got = knn(pts, k)
        want = knn_loop(pts, k)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        tree_dist, idx = cKDTree(pts).query(pts, k=k + 2)
        disagree += np.sum(tree_dist != np.linalg.norm(pts[idx] - pts[:, None, :], axis=2))
    assert disagree > 0


def test_knn_memory_bounded_on_feature_matrix():
    # Survey-sized features on a smooth field; the per-point loop peaks at
    # about 43 MiB here; an unblocked (n, k+2, d) difference array alone is 70 MiB.
    rng = np.random.default_rng(5)
    n, d, k = 8000, 15, 75
    unit = rng.uniform(size=(n, 2))
    field = rng.uniform(0.5, 3.0, d) + unit @ rng.uniform(-1.0, 1.0, (2, d))
    features = field + rng.normal(0, 0.05, (n, d))
    features = (features - features.mean(axis=0)) / features.std(axis=0)
    tracemalloc.start()
    try:
        neighbors, radius = knn(features, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert neighbors.shape == (n, k) and radius.shape == (n,)
    assert np.all(neighbors != np.arange(n)[:, None])
    # Spot-check a few rows against a brute-force ordering.
    for i in (0, 4321, n - 1):
        dist = np.linalg.norm(features - features[i], axis=1)
        dist[i] = np.inf
        np.testing.assert_array_equal(neighbors[i], np.lexsort((np.arange(n), dist))[:k])


def test_knn_memory_bounded_when_rows_keep_tree_order():
    # The input of the test above: every row is clear of near-ties, so none
    # needs its candidates' distances recomputed, and the peak stays near the
    # kd-tree's own (one recomputed block of 512 rows alone is 4.5 MiB).
    rng = np.random.default_rng(5)
    n, d, k = 8000, 15, 75
    unit = rng.uniform(size=(n, 2))
    field = rng.uniform(0.5, 3.0, d) + unit @ rng.uniform(-1.0, 1.0, (2, d))
    features = field + rng.normal(0, 0.05, (n, d))
    features = (features - features.mean(axis=0)) / features.std(axis=0)
    tracemalloc.start()
    try:
        knn(features, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_haversine_matches_euclidean_oracle_on_sphere_embedding():
    rng = np.random.default_rng(1)
    latlon = np.stack([rng.uniform(51, 55, 100), rng.uniform(-10, -6, 100)], axis=1)
    lat, lon = np.radians(latlon[:, 0]), np.radians(latlon[:, 1])
    embedded = np.stack([np.cos(lat) * np.cos(lon),
                         np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)
    adj = mutual_knn_graph(latlon, k=6, metric="haversine")
    assert adj.edge_set() == brute_force_mutual_knn(embedded, 6)


def test_degree_bound():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(150, 2))
    k = 4
    adj = mutual_knn_graph(pts, k=k)
    degrees = np.zeros(150, dtype=int)
    for u, v in adj.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert degrees.max() <= k


def test_parameter_errors():
    pts = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        mutual_knn_graph(pts, k=5)
    with pytest.raises(ParameterError):
        mutual_knn_graph(pts, k=0)
    with pytest.raises(ParameterError):
        mutual_knn_graph(np.zeros((1, 2)), k=1)
    bad = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(DataError):
        mutual_knn_graph(bad, k=1)
    with pytest.raises(ParameterError):
        mutual_knn_graph(np.zeros((4, 3)), k=1, metric="haversine")


def test_hadamard_identity_and_absorbing():
    a = make_graph(4, [(0, 1), (1, 2)])
    complete = make_graph(4, list(itertools.combinations(range(4), 2)))
    empty = make_graph(4, [])
    assert hadamard_intersect(a, complete).edge_set() == a.edge_set()
    assert hadamard_intersect(a, empty).edge_set() == set()


def test_hadamard_intersection():
    a = make_graph(4, [(0, 1), (1, 2)])
    b = make_graph(4, [(1, 2), (2, 3)])
    assert hadamard_intersect(a, b).edge_set() == {(1, 2)}


def test_hadamard_size_mismatch():
    with pytest.raises(ParameterError):
        hadamard_intersect(make_graph(3, []), make_graph(4, []))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
def test_hadamard_commutative_idempotent_subset(pairs_a, pairs_b):
    ea = {(min(u, v), max(u, v)) for u, v in pairs_a if u != v}
    eb = {(min(u, v), max(u, v)) for u, v in pairs_b if u != v}
    a, b = make_graph(10, ea), make_graph(10, eb)
    ab = hadamard_intersect(a, b).edge_set()
    assert ab == hadamard_intersect(b, a).edge_set()
    assert hadamard_intersect(a, a).edge_set() == ea
    assert ab <= ea and ab <= eb


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), relation=st.sampled_from(["drawn", "empty", "disjoint", "identical"]),
       data=st.data())
def test_hadamard_matches_set_intersection(n, relation, data):
    pairs = st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda p: p[0] < p[1]))
    ea, eb = data.draw(pairs), data.draw(pairs)
    eb = {"drawn": eb, "empty": set(), "disjoint": eb - ea, "identical": set(ea)}[relation]
    # Edge arrays in any order, not only the lexicographic one.
    a, b = (SparseAdjacency(n=n, edges=np.array(data.draw(st.permutations(sorted(e))),
                                                dtype=np.int64).reshape(-1, 2))
            for e in (ea, eb))
    want = np.array(sorted(ea & eb), dtype=np.int64).reshape(-1, 2)
    np.testing.assert_array_equal(hadamard_intersect(a, b).edges, want)
    np.testing.assert_array_equal(hadamard_intersect(b, a).edges, want)


def test_components_edgeless():
    cc = connected_components(make_graph(4, []))
    assert list(cc.labels) == [0, 1, 2, 3]
    assert cc.component_sizes == {0: 1, 1: 1, 2: 1, 3: 1}


def test_components_path():
    cc = connected_components(make_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert list(cc.labels) == [0, 0, 0, 0]
    assert cc.component_sizes == {0: 4}


def test_components_match_bfs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 64
        mask = rng.uniform(size=(n, n)) < 0.05
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
        cc = connected_components(make_graph(n, edges))
        assert list(cc.labels) == bfs_components(n, edges)


def test_components_invariant_under_edge_order():
    edges = [(0, 1), (2, 3), (1, 2), (5, 6)]
    base = connected_components(SparseAdjacency(n=7, edges=np.array(edges)))
    shuffled = connected_components(SparseAdjacency(n=7, edges=np.array(edges[::-1])))
    assert list(base.labels) == list(shuffled.labels)


def test_dump_load_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(50, 2))
    adj = mutual_knn_graph(pts, k=4)
    path = tmp_path / "adj.bin"
    dump_adjacency(adj, path)
    loaded = load_adjacency(path)
    assert loaded.n == adj.n
    np.testing.assert_array_equal(loaded.edges, adj.edges)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"nope" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_adjacency(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "adj.bin"
    dump_adjacency(make_graph(4, [(0, 1), (1, 2), (2, 3)]), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(SpatialCpfError, match="adj.bin"):
        load_adjacency(path)


def test_load_rejects_out_of_range_edge(tmp_path):
    path = tmp_path / "adj.bin"
    dump_adjacency(SparseAdjacency(n=3, edges=[[5, 1]]), path)
    with pytest.raises(SpatialCpfError, match="adj.bin"):
        load_adjacency(path)
    dump_adjacency(SparseAdjacency(n=3, edges=[[1, 1]]), path)
    with pytest.raises(SpatialCpfError, match="adj.bin"):
        load_adjacency(path)


def test_load_rejects_unordered_edges(tmp_path):
    path = tmp_path / "adj.bin"
    for edges in ([[1, 2], [0, 1]], [[0, 2], [0, 1]], [[0, 1], [0, 1]]):
        dump_adjacency(SparseAdjacency(n=3, edges=edges), path)
        with pytest.raises(SpatialCpfError, match="adj.bin"):
            load_adjacency(path)


def test_dump_rejects_vertex_count_beyond_u32(tmp_path):
    path = tmp_path / "adj.bin"
    with pytest.raises(SpatialCpfError, match="adj.bin"):
        dump_adjacency(SparseAdjacency(n=2**32 + 2, edges=[[0, 2**32 + 1]]), path)
    assert not path.exists()
