import math

import numpy as np
import pytest

from conftest import two_blob_dataset
from spatialcpf.cpf import (OUTLIER, BigBrother, ClusterLabeling, CpfParams,
                            assign_clusters, big_brother, fit, knn_density,
                            merge_clusters, select_centers)
from spatialcpf.errors import DataError, ParameterError
from spatialcpf.graph import (ComponentLabels, connected_components, knn,
                              mutual_knn_graph)


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
    bb = big_brother(features, density, comps)
    assert bb.parent[0] == -1 and bb.parent[1] == -1
    assert np.isinf(bb.omega).all()


def test_big_brother_collinear_hand_case():
    features = np.array([[0.0], [1.0], [3.0]])
    from spatialcpf.cpf import DensityEstimate
    density = DensityEstimate(r_k=np.array([1.0, 2.0, 3.0]),
                              log_density=np.array([3.0, 2.0, 1.0]))
    bb = big_brother(features, density, single_component(3))
    assert bb.parent[0] == -1 and np.isinf(bb.omega[0])
    assert bb.parent[1] == 0 and bb.omega[1] == pytest.approx(1.0)
    assert bb.parent[2] == 1 and bb.omega[2] == pytest.approx(2.0)


def test_big_brother_all_ties_follow_ascending_index():
    from spatialcpf.cpf import DensityEstimate
    m = 5
    features = np.arange(m, dtype=float).reshape(-1, 1)
    density = DensityEstimate(r_k=np.ones(m), log_density=np.zeros(m))
    bb = big_brother(features, density, single_component(m))
    assert bb.parent[0] == -1
    # Each sample's nearest lower-index point is its left neighbor.
    for i in range(1, m):
        assert bb.parent[i] == i - 1


def test_big_brother_chains_acyclic_and_in_component():
    features, geo, _ = two_blob_dataset(0, n_per_blob=60)
    adj = mutual_knn_graph(features, k=10)
    comps = connected_components(adj)
    density = density_of(features, CpfParams(min_samples=10, min_component_size=1))
    bb = big_brother(features, density, comps)
    for i in range(len(features)):
        seen = set()
        j = i
        while bb.parent[j] != -1:
            assert comps.labels[bb.parent[j]] == comps.labels[j]
            assert j not in seen
            seen.add(j)
            j = int(bb.parent[j])


# ------------------------------------------------------------- centers

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
    bb = big_brother(features, density, comps)
    params = CpfParams(min_samples=5, rho=0.01, alpha=0.015, min_component_size=5)
    centers = select_centers(density, bb, comps, params)
    assert len(centers) == 2
    assert any(c < 20 for c in centers) and any(c >= 20 for c in centers)
    labeling = assign_clusters(bb, centers, comps, params)
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
    labeling = assign_clusters(bb, centers, comps, params)
    assert np.all(labeling.labels == OUTLIER)


def test_assign_single_center_single_component():
    rng = np.random.default_rng(6)
    features = rng.normal(0, 1, (30, 2))
    density = density_of(features, CpfParams(min_samples=5, min_component_size=1))
    comps = single_component(30)
    bb = big_brother(features, density, comps)
    center = np.array([int(np.argmax(density.log_density))])
    labeling = assign_clusters(bb, center, comps, CpfParams(min_samples=5, min_component_size=5))
    assert np.all(labeling.labels == 0)


# --------------------------------------------------------------- merge

def _toy_labeling():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = ClusterLabeling(labels=np.array([0, 0, 1, 1]))
    centers = np.array([0, 2])
    density = DensityEstimate(r_k=np.ones(4), log_density=np.array([2.0, 1.0, 1.9, 1.0]))
    return features, labels, centers, density


def test_merge_threshold_zero_no_change():
    features, labels, centers, density = _toy_labeling()
    out = merge_clusters(labels, centers, density, features,
                         CpfParams(min_samples=2, merge_threshold=0.0))
    assert out.n_clusters == 2


def test_merge_ratio_threshold_one_distinct_densities_no_change():
    features, labels, centers, density = _toy_labeling()
    out = merge_clusters(labels, centers, density, features,
                         CpfParams(min_samples=2, merge_threshold=100.0,
                                   density_ratio_threshold=1.0))
    assert out.n_clusters == 2


def test_merge_both_predicates_hold():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [0.5], [1.5]])
    labels = ClusterLabeling(labels=np.array([0, 1, 0, 1]))
    centers = np.array([0, 1])
    # distance 1.0 <= 2.0 and exp(-|ln 0.9|) ratio = 0.9 >= 0.7
    density = DensityEstimate(r_k=np.ones(4),
                              log_density=np.array([0.0, math.log(0.9), 0.0, 0.0]))
    out = merge_clusters(labels, centers, density, features,
                         CpfParams(min_samples=2, merge_threshold=2.0,
                                   density_ratio_threshold=0.7))
    assert out.n_clusters == 1


def test_merge_transitive_closure():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [1.0], [2.0], [50.0]])
    labels = ClusterLabeling(labels=np.array([0, 1, 2, 3]))
    centers = np.array([0, 1, 2, 3])
    density = DensityEstimate(r_k=np.ones(4), log_density=np.zeros(4))
    # 0-1 and 1-2 merge; 3 stays.
    out = merge_clusters(labels, centers, density, features,
                         CpfParams(min_samples=2, merge_threshold=1.5,
                                   density_ratio_threshold=0.5))
    assert out.n_clusters == 2
    assert out.labels[0] == out.labels[1] == out.labels[2]
    assert out.labels[3] != out.labels[0]


def test_relabel_by_descending_size():
    from spatialcpf.cpf import DensityEstimate
    features = np.array([[0.0], [100.0], [101.0], [102.0]])
    labels = ClusterLabeling(labels=np.array([0, 1, 1, 1]))
    centers = np.array([0, 1])
    density = DensityEstimate(r_k=np.ones(4), log_density=np.zeros(4))
    out = merge_clusters(labels, centers, density, features,
                         CpfParams(min_samples=2, merge_threshold=0.0))
    # Bigger cluster gets label 0 after re-indexing.
    assert list(out.labels) == [1, 0, 0, 0]


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
