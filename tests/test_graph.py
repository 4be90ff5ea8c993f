import itertools
import sys
from collections import Counter
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

import oracle_cpf
from oracle_graph import knn_loop
from spatialcpf import graph
from spatialcpf.errors import DataError, ParameterError, SpatialCpfError
from spatialcpf.graph import (SparseAdjacency, component_roots, connected_components,
                              dump_adjacency, hadamard_intersect, knn,
                              load_adjacency, mutual_graph, mutual_knn_graph)


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
def test_mutual_graph_matches_oracle_on_arbitrary_lists(data, seed, n):
    # Any rows of k distinct other vertices, not only kNN lists: each row is
    # a random draw, so mutual pairs fall anywhere in the lists.
    k = data.draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)), label="k")
    rng = np.random.default_rng(seed)
    neighbors = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
    adj = mutual_graph(neighbors)
    assert adj.n == n
    assert adj.edges.tolist() == sorted(map(list, oracle_cpf.mutual_edges(neighbors.tolist())))


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 80), d=st.sampled_from([1, 2, 15]),
       points=st.sampled_from(["runs", "lattice"]))
def test_knn_same_on_one_and_three_threads(seed, n, d, points):
    rng = np.random.default_rng(seed)
    # k + 2 <= n // 3, so under "runs" the longest run of duplicates cannot
    # settle at width k + 2 and is queried again.
    k = int(rng.integers(1, n // 3 - 1))
    if points == "runs":
        pts = rng.normal(size=(3, d))[rng.integers(0, rng.integers(1, 4), n)]
    else:
        # Duplicated points and exactly equal distances.
        pts = rng.integers(0, 4, (n, d)).astype(float)
    real_map_blocks, results = graph.map_blocks, []
    for threads in (1, 3):
        rounds = []

        def recording(func, rows, budget):
            blocks = []
            rounds.append(blocks)
            return real_map_blocks(lambda block: blocks.append(len(block)) or func(block),
                                   rows, budget)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "THREADS", threads)
            # Six rows in flight at width k + 2, three at the next width: on
            # three threads, blocks of two rows and then of one.
            mp.setattr(graph, "_BLOCK_ROWS", 6)
            mp.setattr(graph, "map_blocks", recording)
            results.append(knn(pts, k))
        if points == "runs":
            # A retry round spans several blocks.
            assert max(len(blocks) for blocks in rounds[1:]) > 1
    (one, one_cut), (three, three_cut) = results
    np.testing.assert_array_equal(three, one)
    assert three_cut.tobytes() == one_cut.tobytes()
    want_neighbors, want_radius = knn_loop(pts, k)
    np.testing.assert_array_equal(one, want_neighbors)
    np.testing.assert_array_equal(one_cut, want_radius)


def test_knn_threads_under_fast_switching():
    # More threads than cores and a short switch interval, so the blocks
    # interleave as finely as they can; a block writing outside its own rows
    # or a lost retry row would change the result.
    rng = np.random.default_rng(9)
    pts = np.concatenate([rng.normal(size=(1500, 3)), np.zeros((40, 3))])
    pts = pts[rng.permutation(len(pts))]
    results, interval = [], sys.getswitchinterval()
    for threads in (1, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "THREADS", threads)
            mp.setattr(graph, "_BLOCK_ROWS", 16)
            sys.setswitchinterval(1e-6)
            try:
                results.append(knn(pts, 8))
            finally:
                sys.setswitchinterval(interval)
    (one, one_cut), (four, four_cut) = results
    np.testing.assert_array_equal(four, one)
    assert four_cut.tobytes() == one_cut.tobytes()


@pytest.mark.parametrize("threads", [1, 3])
def test_map_blocks_keeps_order_and_raises_block_exception_unchanged(monkeypatch, threads):
    monkeypatch.setattr(graph, "THREADS", threads)
    done = []

    def square(block):
        # Later blocks finish first when they run side by side.
        time.sleep(0.002 * (8 - block[0]))
        done.extend(block)
        return [b * b for b in block]

    got = graph.map_blocks(square, range(8), 3)
    assert [b for block in got for b in block] == [b * b for b in range(8)]
    assert sorted(done) == list(range(8))
    assert graph.map_blocks(square, range(0), 3) == []
    error = ValueError("block 5 failed")

    def fail_on_five(block):
        if 5 in block:
            raise error
        return block

    with pytest.raises(ValueError) as raised:
        graph.map_blocks(fail_on_five, range(8), 3)
    assert raised.value is error


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("budget", [1, 5, 64])
def test_map_blocks_keeps_rows_in_flight_within_budget(monkeypatch, threads, budget):
    # The rows in flight at once, summed over threads, never exceed the
    # budget, so knn's temporaries do not grow with the core count.
    monkeypatch.setattr(graph, "THREADS", threads)
    lock, in_flight, peak, seen = threading.Lock(), [0], [0], []

    def hold(block):
        with lock:
            in_flight[0] += len(block)
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.001)
        with lock:
            in_flight[0] -= len(block)
        seen.extend(block)
        return len(block)

    sizes = graph.map_blocks(hold, range(200), budget)
    assert sum(sizes) == 200 and sorted(seen) == list(range(200))
    assert peak[0] <= budget
    assert max(sizes) * min(threads, budget) <= budget


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


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 20),
       points=st.sampled_from(["random", "runs", "lattice", "near", "tiny"]))
def test_knn_matches_loop_oracle_under_any_rotation(seed, n, d, points):
    # The tree only proposes candidates: whatever axes it is built on, the
    # lists and the radius bits are the oracle's.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    if points == "random":
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    elif points == "runs":
        # Runs of duplicate points, which widen the query.
        pts = rng.normal(size=(3, d))[rng.integers(0, rng.integers(1, 4), n)]
    elif points == "lattice":
        # Exactly equal distances, ties at the cut among them.
        pts = rng.integers(0, 4, (n, d)).astype(float)
    elif points == "near":
        # Near-duplicates: clumps 1e-8 wide around a few points.
        pts = rng.normal(size=(3, d))[rng.integers(0, 3, n)] + rng.normal(0, 1e-8, (n, d))
    else:
        # Squares below the smallest normal float, which round absolutely.
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-170, -150)
    # A random orthogonal matrix, as computed: orthogonal within rounding.
    rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_principal_axes", lambda centred: rotation)
        neighbors, radius = knn(pts, k)
    want_neighbors, want_radius = knn_loop(pts, k)
    np.testing.assert_array_equal(neighbors, want_neighbors)
    assert radius.tobytes() == want_radius.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 20), magnitude=st.floats(-3, 3),
       duplicates=st.booleans())
def test_tree_distance_equals_kd_tree_bits(seed, d, magnitude, duplicates):
    # The radius copies the kd-tree's distance; numpy's norm sums the
    # squares in another order and differs in the last bit.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** magnitude
    pts = rng.normal(size=(60, d)) * scale + rng.normal(size=d) * 10 * scale
    if duplicates:
        pts[rng.integers(0, 60, 20)] = pts[rng.integers(0, 60, 20)]
    dist, idx = cKDTree(pts).query(pts, k=12)
    assert graph._tree_distance(pts[idx] - pts[:, None, :]).tobytes() == dist.tobytes()


def test_knn_rotation_slack_is_needed():
    # Two clusters at +-offset, about 1e4 from the centre, each point on a
    # lattice of 1e-6 steps: rotating rounds every coordinate by about
    # d eps 1e4, more than the gaps between the lattice distances, so the
    # rotated tree's order is wrong wherever the slack does not catch it.
    differ = {"slack": 0, "none": 0}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(2, 16)), int(rng.integers(3, 30))
        side = np.where(np.arange(80) % 2, 1.0, -1.0)[:, None]
        pts = side * rng.normal(0, 1e4, d) + rng.integers(0, 4, (80, d)) * 1e-6
        want_neighbors, want_radius = knn_loop(pts, k)
        for variant in differ:
            with pytest.MonkeyPatch.context() as mp:
                if variant == "none":
                    mp.setattr(graph, "_rotation_slack", lambda centred, axes: 0.0)
                neighbors, radius = knn(pts, k)
            differ[variant] += not (np.array_equal(neighbors, want_neighbors)
                                    and radius.tobytes() == want_radius.tobytes())
    assert differ["slack"] == 0
    assert differ["none"] > 30


def test_knn_rejects_overflowing_spread_and_keeps_huge_finite_one():
    rng = np.random.default_rng(8)
    # Squared distances beyond the largest float: the tree would report the
    # neighbors as missing (index n).
    with pytest.raises(DataError, match="squared distances overflow"):
        knn(rng.normal(size=(30, 3)) * 1e160, 4)
    # Just below that limit; with a scatter matrix that would overflow
    # unless the points are scaled first; and with a column whose sum would.
    for pts in (rng.normal(size=(30, 3)) * 1e150, rng.normal(size=(2000, 3)) * 5e152,
                np.column_stack([np.full(30, 1e308), rng.normal(size=30)])):
        neighbors, radius = knn(pts, 4)
        want_neighbors, want_radius = knn_loop(pts, 4)
        np.testing.assert_array_equal(neighbors, want_neighbors)
        assert radius.tobytes() == want_radius.tobytes()
    # Distinct variances, so each axis is unique up to sign: the axes of
    # points whose scatter overflows are those of the same points scaled down.
    pts = rng.normal(size=(2000, 3)) * [3.0, 2.0, 1.0]
    pts -= pts.mean(axis=0)
    np.testing.assert_allclose(np.abs(graph._principal_axes(pts * 5e152)),
                               np.abs(graph._principal_axes(pts)), atol=1e-12)


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


def _traced_peak(func, *args):
    """func(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_builders_memory_bounded_by_sizes():
    # Beside its input, each builder may hold one key per listed entry or
    # input edge, 4 bytes at n = 8000 (n^2 < 2^32), plus its one-byte
    # equality mask, and 8 bytes per output edge (the (m, 2) int32 edges),
    # plus 1 MiB. int64 keys, a second array of the keys' size, a copy of
    # all shared keys or int64 edges would exceed it.
    n, k = 8000, 75
    lists = [knn(np.random.default_rng(seed).uniform(size=(n, 2)), k)[0] for seed in (0, 1)]
    a, peak = _traced_peak(mutual_graph, lists[0])
    assert peak < 5 * n * k + 8 * a.n_edges + 2**20
    b = mutual_graph(lists[1])
    both, peak = _traced_peak(hadamard_intersect, a, b)
    assert peak < 5 * (a.n_edges + b.n_edges) + 8 * both.n_edges + 2**20
    assert both.edge_set() == a.edge_set() & b.edge_set()


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


def bfs_roots(labels):
    """Each vertex's component's smallest member, from bfs_components'
    labels, which number the components by their smallest members."""
    first = {}
    for i, c in enumerate(labels):
        first.setdefault(c, i)
    return [first[c] for c in labels]


def _check_components(n, pairs, flips):
    """connected_components of the u < v pairs in the given order, and
    component_roots of them with the pairs where flips is set given as
    (v, u), against bfs_components."""
    want = bfs_components(n, pairs)
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    cc = connected_components(SparseAdjacency(n=n, edges=edges))
    assert cc.labels.tolist() == want
    assert cc.component_sizes == Counter(want)
    edges[flips] = edges[flips, ::-1]
    assert component_roots(n, edges).tolist() == bfs_roots(want)


def test_components_of_one_vertex():
    cc = connected_components(make_graph(1, []))
    assert cc.labels.tolist() == [0] and cc.component_sizes == {0: 1}
    assert component_roots(1, np.empty((0, 2), dtype=np.int32)).tolist() == [0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_components_match_bfs_on_drawn_graphs(n, data):
    # Isolated vertices, n = 1 and edges in any order, either end first.
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), unique=True))
    pairs = data.draw(st.permutations(pairs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    _check_components(n, pairs, np.array(flips, dtype=bool))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1500, 2500), paths=st.integers(1, 4))
def test_components_of_shuffled_paths(seed, n, paths):
    # Paths over shuffled ids: each hooking round joins only a few stretches
    # of a path, so the labeller needs several rounds.
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n)
    cuts = set(rng.choice(np.arange(1, n), size=paths - 1, replace=False).tolist())
    pairs = [tuple(sorted((int(ids[i - 1]), int(ids[i])))) for i in range(1, n) if i not in cuts]
    order = rng.permutation(len(pairs))
    _check_components(n, [pairs[i] for i in order], rng.random(len(pairs)) < 0.5)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_component_roots_of_linked_matrix(data, n):
    # np.argwhere of a symmetric boolean matrix with its diagonal set, so
    # both (i, j) and (j, i) and self-loops.
    linked = data.draw(arrays(bool, (n, n)))
    linked |= linked.T
    np.fill_diagonal(linked, True)
    pairs = np.argwhere(linked)
    want = bfs_roots(bfs_components(n, pairs.tolist()))
    assert component_roots(n, pairs).tolist() == want


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


def test_vertex_count_beyond_int32_ids_rejected():
    # n = 2^31 is the most int32 ids can number; one more is refused
    # before any point or edge is read.
    top = graph.MAX_VERTICES
    assert top == 2**31
    assert SparseAdjacency(n=top, edges=[[0, top - 1]]).edges.dtype == np.int32
    with pytest.raises(ParameterError, match="int32"):
        SparseAdjacency(n=top + 1, edges=[[0, 1]])
    with pytest.raises(ParameterError, match="int32"):
        SparseAdjacency(n=top, edges=np.array([[0, top]], dtype=np.int64))
    with pytest.raises(ParameterError, match="int32"):
        knn(np.broadcast_to(np.zeros(2), (top + 1, 2)), 3)


def _write_adjacency(path, n, pairs):
    pairs = np.array(pairs, dtype="<u4").reshape(-1, 2)
    path.write_bytes(graph._HEADER.pack(graph._MAGIC, n, len(pairs)) + pairs.tobytes())


def test_load_rejects_ids_beyond_int32_before_narrowing(tmp_path):
    path = tmp_path / "adj.bin"
    _write_adjacency(path, 2**31 + 1, [[0, 1]])
    with pytest.raises(DataError, match="adj.bin"):
        load_adjacency(path)
    # u32 ids that int32 would read as negative: u < v fails or v >= n.
    for pairs in ([[2**31, 1]], [[0, 2**31]], [[1, 2**32 - 1]]):
        _write_adjacency(path, 2**31, pairs)
        with pytest.raises(DataError, match="adj.bin"):
            load_adjacency(path)
    _write_adjacency(path, 2**31, [[0, 2**31 - 1], [2**31 - 2, 2**31 - 1]])
    loaded = load_adjacency(path)
    assert loaded.edges.dtype == np.int32
    assert loaded.edges.tolist() == [[0, 2**31 - 1], [2**31 - 2, 2**31 - 1]]


def test_keys_of_ids_near_n_do_not_wrap():
    # n^2 > 2^32: the key u * n + v of a pair near n - 1 needs more than 32
    # bits, so an int32 product would wrap.
    _check_keys_near_n(70_000)


def test_key_type_is_narrowest_unsigned_holding_n_squared():
    for n, key in ((0, np.uint8), (1, np.uint8), (16, np.uint8), (17, np.uint16),
                   (256, np.uint16), (257, np.uint32), (65_536, np.uint32),
                   (65_537, np.uint64), (graph.MAX_VERTICES, np.uint64)):
        assert graph._key_type(n) == key, n


@pytest.mark.parametrize("n", [16, 17, 256, 257, 65_536, 65_537])
def test_keys_at_key_type_boundaries(n):
    # The largest n whose keys fit 8, 16 and 32 bits, and the first that
    # needs a wider type: a key type chosen one vertex too narrow wraps
    # the keys of pairs near n - 1, as does a product taken in int32.
    _check_keys_near_n(n)


def _check_keys_near_n(n):
    """mutual_graph on two lists over n vertices and hadamard_intersect of
    the two graphs equal the oracles. Each row lists the offsets +-1 and 2
    of +-2, +-3, taken mod n, so lists and edges cross from n - 1 to 0, and
    both graphs hold each pair (i, i + 1 mod n), (n - 2, n - 1) too, whose
    key is the largest one."""
    offsets = np.array([1, -1, 2, -2, 3, -3])
    lists, graphs = [], []
    for seed in (0, 1):
        far = 2 + np.argsort(np.random.default_rng(seed).uniform(size=(n, 4)), axis=1)[:, :2]
        pick = np.hstack([np.broadcast_to([0, 1], (n, 2)), far])
        lists.append(((np.arange(n)[:, None] + offsets[pick]) % n).astype(np.int32))
        graphs.append(mutual_graph(lists[-1]))
        assert graphs[-1].edges.tolist() == sorted(map(list, oracle_cpf.mutual_edges(
            lists[-1].tolist())))
        assert graphs[-1].edges.max() == n - 1
    a, b = graphs
    both = hadamard_intersect(a, b)
    assert both.edges.tolist() == sorted(map(list, a.edge_set() & b.edge_set()))
    assert both.edges[-1].tolist() == [n - 2, n - 1]
    assert [0, n - 1] in both.edges.tolist()
