import math
import os
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracle_cpf
from conftest import two_blob_dataset
from spatialcpf import cpf, graph
from spatialcpf.cpf import (OUTLIER, BigBrother, CpfParams,
                            DensityEstimate, assign_clusters, big_brother, fit,
                            group_by_label, knn_density, merge_clusters, select_centers)
from spatialcpf.errors import DataError, InternalConsistencyError, ParameterError
from spatialcpf.graph import (ComponentLabels, SparseAdjacency, connected_components,
                              knn, mutual_graph, mutual_knn_graph)


# No merged center pairs: merge_clusters' result with nothing linked.
NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def single_component(n):
    return ComponentLabels(labels=np.zeros(n, dtype=np.int64),
                           component_sizes={0: n})


def blob_params(k=50):
    return CpfParams(min_samples=k, rho=0.01, alpha=0.015,
                     merge_threshold=5.0, density_ratio_threshold=0.01)


def density_of(features, params):
    _, radius = knn(features, params.min_samples)
    return knn_density(radius, features.shape[1], params)


def blob_fit(seed):
    features, geo, truth = two_blob_dataset(seed)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    return fit(features, geo_adj, blob_params()), truth


# ------------------------------------------------------------- density

def test_density_ranking_is_reverse_of_radius():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(60, 3))
    est = density_of(features, CpfParams(min_samples=5))
    order_r = np.argsort(est.r_k)
    order_d = np.argsort(-est.log_density)
    np.testing.assert_array_equal(order_r, order_d)


def test_density_grid_center_beats_corners():
    pts = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    est = density_of(pts, CpfParams(min_samples=3, min_component_size=1))
    # Brute-force r_3 check: center (index 4) has r_3 = 1, corners sqrt(2).
    assert est.r_k[4] == pytest.approx(1.0)
    for corner in (0, 2, 6, 8):
        assert est.r_k[corner] == pytest.approx(math.sqrt(2.0))
        assert est.log_density[4] > est.log_density[corner]


def test_density_duplicate_points_warn_and_stay_finite():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(10, 2))
    features[7] = features[3]
    with pytest.warns(UserWarning, match="substituting"):
        est = density_of(features, CpfParams(min_samples=1, min_component_size=1))
    assert np.isfinite(est.log_density).all()
    assert est.log_density[3] == est.log_density[7]


def test_density_requires_enough_samples():
    with pytest.raises(ParameterError):
        knn_density(np.zeros(5), 2, CpfParams(min_samples=5))


# --------------------------------------------------------- big brother

def test_big_brother_singleton_component():
    features = np.array([[0.0], [10.0]])
    density = density_of(features, CpfParams(min_samples=1, min_component_size=1))
    comps = ComponentLabels(labels=np.array([0, 1]), component_sizes={0: 1, 1: 1})
    bb = big_brother(features, density, comps, *knn(features, 1))
    assert bb.parent[0] == -1 and bb.parent[1] == -1
    assert np.isinf(bb.omega).all()


def test_big_brother_collinear_hand_case():
    features = np.array([[0.0], [1.0], [3.0]])
    from spatialcpf.cpf import DensityEstimate
    density = DensityEstimate(r_k=np.array([1.0, 2.0, 3.0]),
                              log_density=np.array([3.0, 2.0, 1.0]))
    bb = big_brother(features, density, single_component(3), *knn(features, 1))
    assert bb.parent[0] == -1 and np.isinf(bb.omega[0])
    assert bb.parent[1] == 0 and bb.omega[1] == pytest.approx(1.0)
    assert bb.parent[2] == 1 and bb.omega[2] == pytest.approx(2.0)


def test_big_brother_all_ties_follow_ascending_index():
    from spatialcpf.cpf import DensityEstimate
    m = 5
    features = np.arange(m, dtype=float).reshape(-1, 1)
    density = DensityEstimate(r_k=np.ones(m), log_density=np.zeros(m))
    bb = big_brother(features, density, single_component(m), *knn(features, 2))
    assert bb.parent[0] == -1
    # Each sample's nearest lower-index point is its left neighbor.
    for i in range(1, m):
        assert bb.parent[i] == i - 1


def test_big_brother_chains_acyclic_and_in_component():
    features, geo, _ = two_blob_dataset(0, n_per_blob=60)
    adj = mutual_knn_graph(features, k=10)
    comps = connected_components(adj)
    density = density_of(features, CpfParams(min_samples=10, min_component_size=1))
    bb = big_brother(features, density, comps, *knn(features, 10))
    for i in range(len(features)):
        seen = set()
        j = i
        while bb.parent[j] != -1:
            assert comps.labels[bb.parent[j]] == comps.labels[j]
            assert j not in seen
            seen.add(j)
            j = int(bb.parent[j])


def _labels_to_components(labels):
    _, labels = np.unique(labels, return_inverse=True)
    sizes = {int(c): int(s) for c, s in zip(*np.unique(labels, return_counts=True))}
    return ComponentLabels(labels=labels, component_sizes=sizes)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), k=st.integers(1, 12),
       d=st.integers(1, 20), points=st.sampled_from(["random", "lattice"]),
       split=st.sampled_from(["one", "random", "mutual_graph"]),
       density_from=st.sampled_from(["radius", "noise"]))
def test_big_brother_matches_oracle(seed, n, k, d, points, split, density_from):
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    if points == "random":
        features = rng.normal(size=(n, d))
    else:
        # A small integer lattice: duplicated points and equal distances.
        features = rng.integers(0, 4, (n, d)).astype(float)
    neighbors, radius = knn(features, k)
    if split == "one":
        comps = single_component(n)
    elif split == "random":
        comps = _labels_to_components(rng.integers(0, 4, n))
    else:
        comps = connected_components(mutual_graph(neighbors))
    # Rounded densities, so that many samples tie on density.
    if density_from == "radius":
        log_density = np.round(-np.log(np.maximum(radius, 1e-3)), 1)
    else:
        log_density = np.round(rng.normal(size=n))
    density = DensityEstimate(r_k=radius, log_density=log_density)
    bb = big_brother(features, density, comps, neighbors, radius)
    want = oracle_cpf.big_brother(features, density, comps)
    np.testing.assert_array_equal(bb.parent, want.parent)
    np.testing.assert_array_equal(bb.omega, want.omega)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 20),
       exponent=st.floats(-3, 3), duplicates=st.integers(0, 20))
def test_list_pass_distance_equals_cdist(seed, n, d, exponent, duplicates):
    # big_brother and merge_clusters measure every distance with
    # cpf._distances; the oracle uses cdist. The two must agree bit for bit,
    # or omega and the merges would depend on which one measured.
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * 10.0 ** (exponent + rng.uniform(-0.5, 0.5, d))
    features[rng.integers(0, n, duplicates)] = features[rng.integers(0, n, duplicates)]
    rows = np.arange(n)
    want = cdist(features, features)
    np.testing.assert_array_equal(cpf._distances(features, rows[:, None], rows), want)
    # As the list pass calls it, on (n, k) lists, and into a buffer as the
    # fallback does.
    listed = np.tile(rows, (n, 1))
    np.testing.assert_array_equal(cpf._distances(features, rows[:, None], listed), want)
    out = np.full((n, n), np.nan)
    assert cpf._distances(features, rows[:, None], rows, out=out) is out
    np.testing.assert_array_equal(out, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 80), k=st.integers(1, 12),
       points=st.sampled_from(["random", "lattice"]))
def test_big_brother_same_on_one_and_three_threads(seed, n, k, points):
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    if points == "random":
        features = rng.normal(size=(n, 2))
    else:
        # Duplicated points and equal distances.
        features = rng.integers(0, 4, (n, 2)).astype(float)
    neighbors, radius = knn(features, k)
    comps = _labels_to_components(rng.integers(0, 3, n))
    density = DensityEstimate(r_k=radius, log_density=np.round(rng.normal(size=n)))
    results = []
    for threads in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "THREADS", threads)
            # Several list-pass blocks even at this size.
            mp.setattr(cpf, "_LIST_ROWS", 5)
            results.append(big_brother(features, density, comps, neighbors, radius))
    one, three = results
    np.testing.assert_array_equal(three.parent, one.parent)
    assert three.omega.tobytes() == one.omega.tobytes()
    want = oracle_cpf.big_brother(features, density, comps)
    np.testing.assert_array_equal(one.parent, want.parent)
    np.testing.assert_array_equal(one.omega, want.omega)


def test_big_brother_memory_bounded_on_large_component():
    # The quadratic oracle would need n^2 float64 (3.2 GB) here, so check
    # the tree's shape rather than compare.
    n = 20_000
    features = np.random.default_rng(12).normal(size=(n, 2))
    neighbors, radius = knn(features, 10)
    density = knn_density(radius, 2, CpfParams(min_samples=10))
    tracemalloc.start()
    try:
        bb = big_brother(features, density, single_component(n), neighbors, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    root = np.flatnonzero(bb.parent == -1)
    assert root.tolist() == [int(np.argmax(density.log_density))]
    child = np.flatnonzero(bb.parent >= 0)
    assert np.all(density.log_density[bb.parent[child]] >= density.log_density[child])
    assert np.all(np.isfinite(bb.omega[child]))


def test_big_brother_fallback_memory_on_duplicate_rows():
    # Identical rows have kNN radius 0, so the lists settle no sample and
    # each is measured against all denser ones in the fallback blocks, of
    # about _BLOCK_ENTRIES distances each (8 MiB blocks peaked at 16 MiB).
    n = 2000
    features = np.zeros((n, 15))
    neighbors = ((np.arange(n)[:, None] + np.arange(1, 6)) % n).astype(graph.VERTEX)
    density = DensityEstimate(r_k=np.zeros(n), log_density=np.zeros(n))
    tracemalloc.start()
    try:
        bb = big_brother(features, density, single_component(n), neighbors, np.zeros(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # Equal densities rank by index, and distance ties go to the lower index.
    assert bb.parent.tolist() == [-1] + [0] * (n - 1)
    assert bb.omega[0] == np.inf and not bb.omega[1:].any()


def test_peak_rss_mib_reads_the_platforms_ru_maxrss_unit(monkeypatch):
    # getrusage gives ru_maxrss in bytes on macOS and in KiB on Linux.
    usage = SimpleNamespace(ru_maxrss=3 << 20)
    monkeypatch.setattr(cpf.resource, "getrusage", lambda who: usage)
    monkeypatch.setattr(cpf.sys, "platform", "darwin")
    assert cpf.peak_rss_mib() == 3.0
    monkeypatch.setattr(cpf.sys, "platform", "linux")
    assert cpf.peak_rss_mib() == 3072.0


# ------------------------------------------------------------- centers

# SPATIALCPF_FUZZ_EXAMPLES sets the examples (CI runs 3000).
@settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "150")), deadline=None)
@given(data=st.data(), n=st.integers(1, 8), columns=st.sampled_from([None, 1, 3]),
       scalar=st.booleans())
def test_sorted_quantiles_equal_np_quantile_bytes(data, n, columns, scalar):
    # Any values but NaN, which no caller holds: ties, huge spreads,
    # subnormals and +-inf, 1-D or as columns, with a scalar q or a vector.
    # Adding 0.0 turns -0.0 into 0.0, as ingest does: np.quantile partitions
    # where the helper's caller sorts, and the two can order 0.0 and -0.0
    # differently, so the sign of a zero quantile may differ.
    shape = (n,) if columns is None else (n, columns)
    value = st.one_of(st.floats(allow_nan=False),
                      st.sampled_from([0.0, 1.0, 1e308, -1e308, math.inf, -math.inf]))
    values = np.array(data.draw(st.lists(value, min_size=math.prod(shape),
                                         max_size=math.prod(shape)))).reshape(shape) + 0.0
    q = (data.draw(st.floats(0.0, 1.0)) if scalar
         else np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))))
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.quantile(values, q, axis=0)
        got = cpf.sorted_quantiles(np.sort(values, axis=0), q)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_centers_all_equal_omegas_only_maximum():
    from spatialcpf.cpf import DensityEstimate
    m = 10
    density = DensityEstimate(r_k=np.ones(m), log_density=np.linspace(1, 2, m))
    omega = np.full(m, 2.0)
    omega[np.argmax(density.log_density)] = np.inf
    parent = np.zeros(m, dtype=np.int64)
    bb = BigBrother(parent=parent, omega=omega)
    centers = select_centers(density, bb, single_component(m),
                             CpfParams(min_samples=2, min_component_size=2, alpha=0.5))
    assert list(centers) == [int(np.argmax(density.log_density))]


def test_centers_two_bridged_blobs_yield_two():
    # Two tight 20-point blobs joined into one component by construction;
    # the second blob's density peak has a large omega spanning the gap.
    rng = np.random.default_rng(5)
    features = np.vstack([rng.normal(0, 0.5, (20, 2)), rng.normal(30, 0.5, (20, 2))])
    density = density_of(features, CpfParams(min_samples=5, min_component_size=1))
    comps = single_component(40)
    bb = big_brother(features, density, comps, *knn(features, 5))
    params = CpfParams(min_samples=5, rho=0.01, alpha=0.015, min_component_size=5)
    centers = select_centers(density, bb, comps, params)
    assert len(centers) == 2
    assert any(c < 20 for c in centers) and any(c >= 20 for c in centers)
    labeling = assign_clusters(bb, centers, NO_PAIRS, comps, params)
    sets = [set(np.flatnonzero(labeling.labels == c)) for c in range(2)]
    assert {frozenset(s) for s in sets} == {frozenset(range(20)), frozenset(range(20, 40))}


def test_small_components_give_no_centers_and_outlier_labels():
    from spatialcpf.cpf import DensityEstimate
    n = 10
    density = DensityEstimate(r_k=np.ones(n), log_density=np.arange(n, dtype=float))
    comps = ComponentLabels(labels=np.arange(n), component_sizes={i: 1 for i in range(n)})
    bb = BigBrother(parent=np.full(n, -1), omega=np.full(n, np.inf))
    params = CpfParams(min_samples=2, min_component_size=2)
    centers = select_centers(density, bb, comps, params)
    assert len(centers) == 0
    labeling = assign_clusters(bb, centers, NO_PAIRS, comps, params)
    assert np.all(labeling.labels == OUTLIER)


def test_assign_single_center_single_component():
    rng = np.random.default_rng(6)
    features = rng.normal(0, 1, (30, 2))
    density = density_of(features, CpfParams(min_samples=5, min_component_size=1))
    comps = single_component(30)
    bb = big_brother(features, density, comps, *knn(features, 5))
    center = np.array([int(np.argmax(density.log_density))])
    labeling = assign_clusters(bb, center, NO_PAIRS, comps,
                               CpfParams(min_samples=5, min_component_size=5))
    assert np.all(labeling.labels == 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1, 5), max_size=200))
def test_group_by_label_matches_per_label_scan(values):
    labels = np.array(values, dtype=np.int64)
    groups = group_by_label(labels)
    assert [c for c, _ in groups] == sorted(set(values))
    for c, members in groups:
        np.testing.assert_array_equal(members, np.flatnonzero(labels == c))


def test_assign_component_without_center_names_first_stranded_sample():
    # Both components qualify, but only component 0 has a center.
    comps = ComponentLabels(labels=np.array([0, 1, 0, 1]), component_sizes={0: 2, 1: 2})
    bb = BigBrother(parent=np.array([-1, 3, 0, -1]), omega=np.array([np.inf, 1.0, 1.0, np.inf]))
    with pytest.raises(InternalConsistencyError,
                       match=r"^big-brother chain from sample 1 does not reach a center$"):
        assign_clusters(bb, np.array([0]), NO_PAIRS, comps,
                        CpfParams(min_samples=1, min_component_size=2))


@pytest.mark.parametrize("parent", [[1, 0], [1, 2, 3, 0], [1, 2, 0, 1, 3]],
                         ids=["two_cycle", "four_cycle", "three_cycle_with_tails"])
def test_assign_parent_cycle_raises_promptly(parent):
    n = len(parent)
    bb = BigBrother(parent=np.array(parent), omega=np.ones(n))
    raised = []

    def call():
        try:
            assign_clusters(bb, np.array([], dtype=np.int64), NO_PAIRS, single_component(n),
                            CpfParams(min_samples=1, min_component_size=1))
        except InternalConsistencyError as exc:
            raised.append(str(exc))

    # A daemon thread, so a hang fails this test instead of stalling the run.
    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "assign_clusters loops on a parent cycle"
    assert raised == ["big-brother chain from sample 0 does not reach a center"]


# --------------------------------------------------------------- merge

def _toy_centers():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [10.0], [11.0]])
    centers = np.array([0, 2])
    density = DensityEstimate(r_k=np.ones(4), log_density=np.array([2.0, 1.0, 1.9, 1.0]))
    return features, centers, density


def star(parent_of):
    """A BigBrother in which each member's parent is its center (-1 at a
    center)."""
    parent = np.array(parent_of, dtype=np.int64)
    return BigBrother(parent=parent, omega=np.where(parent < 0, np.inf, 1.0))


def test_merge_threshold_zero_no_change():
    features, centers, density = _toy_centers()
    params = CpfParams(min_samples=2, merge_threshold=0.0)
    pairs = merge_clusters(centers, density, features, params)
    assert pairs.shape == (0, 2)
    out = assign_clusters(star([-1, 0, -1, 2]), centers, pairs, single_component(4), params)
    assert out.n_clusters == 2


def test_merge_ratio_threshold_one_distinct_densities_no_change():
    features, centers, density = _toy_centers()
    params = CpfParams(min_samples=2, merge_threshold=100.0, density_ratio_threshold=1.0)
    pairs = merge_clusters(centers, density, features, params)
    assert pairs.shape == (0, 2)
    out = assign_clusters(star([-1, 0, -1, 2]), centers, pairs, single_component(4), params)
    assert out.n_clusters == 2


def test_merge_both_predicates_hold():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [0.5], [1.5]])
    centers = np.array([0, 1])
    # distance 1.0 <= 2.0 and exp(-|ln 0.9|) ratio = 0.9 >= 0.7
    density = DensityEstimate(r_k=np.ones(4),
                              log_density=np.array([0.0, math.log(0.9), 0.0, 0.0]))
    params = CpfParams(min_samples=2, merge_threshold=2.0, density_ratio_threshold=0.7)
    pairs = merge_clusters(centers, density, features, params)
    assert pairs.tolist() == [[0, 1]]
    out = assign_clusters(star([-1, -1, 0, 1]), centers, pairs,
                          single_component(4), params)
    assert out.n_clusters == 1


def test_merge_transitive_closure():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [2.0], [50.0]])
    centers = np.array([0, 1, 2, 3])
    density = DensityEstimate(r_k=np.ones(4), log_density=np.zeros(4))
    params = CpfParams(min_samples=2, merge_threshold=1.5, density_ratio_threshold=0.5)
    # 0-1 and 1-2 merge; 3 stays.
    pairs = merge_clusters(centers, density, features, params)
    assert pairs.tolist() == [[0, 1], [1, 2]]
    out = assign_clusters(star([-1, -1, -1, -1]), centers, pairs, single_component(4), params)
    assert out.n_clusters == 2
    assert out.labels[0] == out.labels[1] == out.labels[2]
    assert out.labels[3] != out.labels[0]


def test_relabel_by_descending_size():
    params = CpfParams(min_samples=2, merge_threshold=0.0)
    out = assign_clusters(star([-1, -1, 1, 1]), np.array([0, 1]), NO_PAIRS,
                          single_component(4), params)
    # Bigger cluster gets label 0 after re-indexing.
    assert list(out.labels) == [1, 0, 0, 0]
    # Two clusters of equal size: the one holding the lower sample index
    # (its root) is labelled 0, whichever center is listed first.
    out = assign_clusters(star([3, 2, -1, -1]), np.array([2, 3]), NO_PAIRS,
                          single_component(4), params)
    assert list(out.labels) == [0, 1, 1, 0]


# ----------------------------------------------------------------- fit

def test_fit_two_blobs_exact_recovery():
    result, truth = blob_fit(0)
    labeling = result.labeling
    assert labeling.n_clusters == 2
    assert labeling.n_outliers == 0
    match = (np.all((labeling.labels == 0) == (truth == 0))
             or np.all((labeling.labels == 1) == (truth == 0)))
    assert match


def test_fit_identical_points_single_cluster():
    # With every pairwise distance zero, the lower-index tie rule makes each
    # point's neighbor list the k lowest other indices, so mutuality yields a
    # (k+1)-clique on indices 0..k and isolates the rest. One cluster results;
    # the stranded singletons are labeled outliers.
    n = 30
    k = 5
    features = np.zeros((n, 2))
    geo = np.tile([53.0, -8.0], (n, 1))
    geo_adj = mutual_knn_graph(geo, k=k, metric="haversine")
    params = CpfParams(min_samples=k, min_component_size=k)
    with pytest.warns(UserWarning):
        result = fit(features, geo_adj, params)
    assert result.labeling.n_clusters == 1
    assert result.labeling.n_outliers == n - (k + 1)


# SPATIALCPF_FUZZ_EXAMPLES sets the examples (CI runs 3000).
@settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "150")), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), k=st.integers(1, 6),
       d=st.integers(1, 3), points=st.sampled_from(["random", "lattice"]),
       floor=st.integers(1, 10), rho=st.sampled_from([0.0, 0.01, 0.3]),
       alpha=st.sampled_from([0.015, 0.2, 0.5]),
       merge_threshold=st.sampled_from([0.0, 1.0, 2.0, 7.5]))
def test_fit_matches_oracle(seed, n, k, d, points, floor, rho, alpha, merge_threshold):
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    if points == "random":
        features = rng.normal(size=(n, d))
        geo = rng.uniform(size=(n, 2))
    else:
        # Small integer lattices: duplicated points, ties in distance and
        # density, and every distance the correctly rounded sqrt of an integer.
        features = rng.integers(0, 4, (n, d)).astype(float)
        geo = rng.integers(0, 5, (n, 2)).astype(float)
    geo_lists, _ = oracle_cpf.knn_lists(geo, k)
    geo_adj = SparseAdjacency(n=n, edges=sorted(oracle_cpf.mutual_edges(geo_lists)))
    params = CpfParams(min_samples=k, rho=rho, alpha=alpha, merge_threshold=merge_threshold,
                       min_component_size=floor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit(features, geo_adj, params)
        want = oracle_cpf.fit(features, geo_adj, params)
    assert got.feature_edges == want.feature_edges
    np.testing.assert_array_equal(got.intersected.edges, want.intersected.edges)
    np.testing.assert_array_equal(got.components.labels, want.components.labels)
    assert got.components.component_sizes == want.components.component_sizes
    np.testing.assert_array_equal(got.big_brother.parent, want.big_brother.parent)
    np.testing.assert_array_equal(got.centers, want.centers)
    np.testing.assert_array_equal(got.labeling.labels, want.labeling.labels)
    for ours, theirs in ((got.big_brother.omega, want.big_brother.omega),
                         (got.density.log_density, want.density.log_density)):
        if points == "lattice":
            np.testing.assert_array_equal(ours.view(np.int64), theirs.view(np.int64))
        else:
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0.0)


def test_fit_rejects_small_n():
    with pytest.raises(ParameterError):
        features = np.zeros((10, 2))
        adj = mutual_knn_graph(np.random.default_rng(0).normal(size=(10, 2)), k=3)
        fit(features, adj, CpfParams(min_samples=10))


def test_fit_rejects_non_finite_features():
    features = np.random.default_rng(0).normal(size=(10, 2))
    features[4, 1] = np.nan
    adj = mutual_knn_graph(np.random.default_rng(1).normal(size=(10, 2)), k=3)
    with pytest.raises(DataError):
        fit(features, adj, CpfParams(min_samples=3))


def test_fit_deterministic():
    features, geo, _ = two_blob_dataset(1)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    r1 = fit(features, geo_adj, blob_params())
    r2 = fit(features, geo_adj, blob_params())
    np.testing.assert_array_equal(r1.labeling.labels, r2.labeling.labels)
    np.testing.assert_array_equal(r1.density.log_density, r2.density.log_density)
    np.testing.assert_array_equal(r1.big_brother.omega, r2.big_brother.omega)


def test_fit_permutation_equivariance():
    features, geo, _ = two_blob_dataset(2)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    base = fit(features, geo_adj, blob_params()).labeling

    rng = np.random.default_rng(99)
    perm = rng.permutation(len(features))
    geo_adj_p = mutual_knn_graph(geo[perm], k=50, metric="haversine")
    permuted = fit(features[perm], geo_adj_p, blob_params()).labeling

    base_sets = {frozenset(np.flatnonzero(base.labels == c))
                 for c in range(base.n_clusters)}
    perm_sets = {frozenset(perm[np.flatnonzero(permuted.labels == c)])
                 for c in range(permuted.n_clusters)}
    assert base_sets == perm_sets
    np.testing.assert_array_equal(np.flatnonzero(base.labels == OUTLIER),
                                  np.sort(perm[permuted.labels == OUTLIER]))


def test_fit_merge_monotonicity():
    features, geo, _ = two_blob_dataset(3)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    counts = []
    for thr in (0.0, 1.0, 3.0, 10.0, 50.0):
        params = CpfParams(min_samples=50, rho=0.01, alpha=0.015,
                           merge_threshold=thr, density_ratio_threshold=0.01)
        counts.append(fit(features, geo_adj, params).labeling.n_clusters)
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_fit_outlier_count_equals_small_component_mass():
    features, geo, _ = two_blob_dataset(4, n_per_blob=80)
    # Deliberately small k so the intersection strands samples.
    geo_adj = mutual_knn_graph(geo, k=8, metric="haversine")
    params = CpfParams(min_samples=8, rho=0.01, alpha=0.015,
                       merge_threshold=5.0, density_ratio_threshold=0.01)
    result = fit(features, geo_adj, params)
    floor = params.component_size_floor
    small_mass = sum(s for s in result.components.component_sizes.values() if s < floor)
    assert result.labeling.n_outliers == small_mass


def test_fit_non_outliers_connected_to_center():
    result, _ = blob_fit(5)
    labels = result.labeling.labels
    comps = result.components.labels
    for c in result.centers:
        assert labels[c] >= 0
    # Every non-outlier shares a component with at least one center of its label.
    center_comp = {(labels[c], comps[c]) for c in result.centers}
    for i in np.flatnonzero(labels >= 0):
        assert (labels[i], comps[i]) in center_comp


def test_density_maxima_are_centers_before_merge():
    features, geo, _ = two_blob_dataset(6)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    result = fit(features, geo_adj, blob_params())
    floor = blob_params().component_size_floor
    for comp, size in result.components.component_sizes.items():
        if size < floor:
            continue
        members = np.flatnonzero(result.components.labels == comp)
        maximum = members[np.argmax(result.density.log_density[members])]
        assert maximum in result.centers


def test_params_validation():
    with pytest.raises(ParameterError):
        CpfParams(min_samples=0)
    with pytest.raises(ParameterError):
        CpfParams(rho=1.0)
    with pytest.raises(ParameterError):
        CpfParams(alpha=0.0)
    with pytest.raises(ParameterError):
        CpfParams(merge_threshold=-1.0)
    with pytest.raises(ParameterError):
        CpfParams(density_ratio_threshold=0.0)
