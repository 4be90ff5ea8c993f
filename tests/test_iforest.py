import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_iforest
from spatialcpf.errors import ParameterError
from spatialcpf.iforest import (IsolationForestModel, anomaly_scores,
                                average_path_length, fit_iforest,
                                flag_outliers)


def one_tree_model(nodes, subsample_size, n_features):
    """A one-tree model from (feature, threshold, left, right, size) rows."""
    return IsolationForestModel(*map(np.array, zip(*nodes)), roots=np.array([0]),
                                subsample_size=subsample_size, n_features=n_features, seed=0)


def tree_nodes(model, t):
    """Tree t's (feature, threshold, size) rows in preorder."""
    end = model.roots[t + 1] if t + 1 < model.roots.size else model.feature.size
    rows = slice(model.roots[t], end)
    return list(zip(model.feature[rows].tolist(), model.threshold[rows].tolist(),
                    model.size[rows].tolist()))


def test_average_path_length_base_cases():
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == pytest.approx(1.0)
    # c(4) = 2*H(3) - 2*3/4 = 2*(11/6) - 1.5
    assert average_path_length(4) == pytest.approx(2 * (1 + 0.5 + 1 / 3) - 1.5)


def test_identical_points_single_leaf_equal_scores():
    features = np.array([[1.0, 2.0], [1.0, 2.0]])
    model = fit_iforest(features, n_trees=10, subsample_size=2, seed=0)
    assert model.feature.size == model.roots.size == 10
    assert np.all(model.feature[model.roots] == -1)
    scores = anomaly_scores(model, features)
    assert scores[0] == scores[1]
    assert 0.0 < scores[0] < 1.0


def test_same_seed_identical_model():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(100, 5))
    m1 = fit_iforest(features, n_trees=20, subsample_size=32, seed=7)
    m2 = fit_iforest(features, n_trees=20, subsample_size=32, seed=7)
    for name in ("feature", "threshold", "left", "right", "size", "roots"):
        np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))
    np.testing.assert_array_equal(anomaly_scores(m1, features),
                                  anomaly_scores(m2, features))


def test_planted_extreme_point_gets_max_score():
    rng = np.random.default_rng(1)
    features = np.vstack([rng.normal(0, 1, (100, 3)), [[50.0, 50.0, 50.0]]])
    model = fit_iforest(features, n_trees=100, subsample_size=64, seed=0)
    scores = anomaly_scores(model, features)
    assert np.argmax(scores) == 100


def test_tree_depth_bounded():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(300, 4))
    psi = 64
    model = fit_iforest(features, n_trees=10, subsample_size=psi, seed=0)
    limit = math.ceil(math.log2(psi))

    def depth(node):
        if model.feature[node] < 0:
            return 0
        return 1 + max(depth(model.left[node]), depth(model.right[node]))

    assert all(depth(root) <= limit for root in model.roots)


def test_score_half_when_path_equals_c_psi():
    # Single tree that is one leaf of size psi: every path length is c(psi),
    # so every score is exactly 0.5.
    psi = 16
    model = one_tree_model([(-1, 0.0, -1, -1, psi)], subsample_size=psi, n_features=2)
    scores = anomaly_scores(model, np.zeros((3, 2)))
    np.testing.assert_allclose(scores, 0.5)


def test_deeper_paths_score_below_half():
    rng = np.random.default_rng(3)
    features = rng.uniform(size=(256, 2))
    model = fit_iforest(features, n_trees=100, subsample_size=256, seed=0)
    scores = anomaly_scores(model, features)
    # Bulk points in a uniform cloud isolate slower than c(psi).
    assert np.median(scores) < 0.5
    assert np.all((scores > 0) & (scores < 1))


def test_hand_built_tree_scores():
    # Depth-2 tree over 4 points: split on x at 0.5, each side split again.
    leaf = (-1, 0.0, -1, -1, 1)
    model = one_tree_model([(0, 0.5, 1, 4, 0), (1, 0.5, 2, 3, 0), leaf, leaf,
                            (1, 0.5, 5, 6, 0), leaf, leaf], subsample_size=4, n_features=2)
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    scores = anomaly_scores(model, pts)
    expected = 2.0 ** (-2.0 / average_path_length(4))
    np.testing.assert_allclose(scores, expected)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), d=st.integers(1, 6),
       points=st.sampled_from(["normal", "lattice"]), n_trees=st.integers(1, 30),
       subsample_size=st.integers(2, 300))
def test_flat_forest_matches_tree_oracle(seed, n, d, points, n_trees, subsample_size):
    # subsample_size above n draws with replacement, at or below it without.
    rng = np.random.default_rng(seed)
    if points == "normal":
        features = rng.normal(size=(n, d))
    else:
        # Integer lattices: duplicated rows and constant columns leave unsplit leaves.
        features = rng.integers(0, 3, (n, d)).astype(float)
    model = fit_iforest(features, n_trees=n_trees, subsample_size=subsample_size, seed=seed)
    want = oracle_iforest.fit_iforest(features, n_trees=n_trees,
                                      subsample_size=subsample_size, seed=seed)
    assert model.roots.size == len(want.trees)
    for t, tree in enumerate(want.trees):
        assert tree_nodes(model, t) == oracle_iforest.preorder(tree)
    # Rows lying exactly on split thresholds check the strict < of the routing.
    on_split = np.repeat(model.threshold[model.feature >= 0][:, None], d, axis=1)
    probes = np.vstack([features, on_split])
    assert np.array_equal(anomaly_scores(model, probes),
                          oracle_iforest.anomaly_scores(want, probes))


def test_scores_permute_with_input():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(60, 3))
    model = fit_iforest(features, n_trees=20, subsample_size=32, seed=0)
    scores = anomaly_scores(model, features)
    perm = rng.permutation(60)
    np.testing.assert_array_equal(anomaly_scores(model, features[perm]), scores[perm])


def test_dimension_mismatch():
    model = fit_iforest(np.zeros((10, 3)) + np.arange(10)[:, None], n_trees=5,
                        subsample_size=4, seed=0)
    with pytest.raises(ParameterError):
        anomaly_scores(model, np.zeros((2, 4)))


def test_fit_parameter_errors():
    with pytest.raises(ParameterError):
        fit_iforest(np.zeros((10, 2)), n_trees=0)
    with pytest.raises(ParameterError):
        fit_iforest(np.zeros((1, 2)), n_trees=5)
    with pytest.raises(ParameterError):
        fit_iforest(np.zeros((10, 2)), n_trees=5, subsample_size=1)


def test_flag_count_rule_survey_scale_case():
    rng = np.random.default_rng(5)
    scores = rng.uniform(size=682)
    flags = flag_outliers(scores, 0.30)
    assert flags.sum() == 205


def test_flag_count_tiny_contamination():
    scores = np.linspace(0, 1, 10)
    assert flag_outliers(scores, 0.01).sum() == 0


def test_flag_top_k_by_hand():
    scores = 0.1 * np.arange(10)
    flags = flag_outliers(scores, 0.3)
    assert list(np.flatnonzero(flags)) == [7, 8, 9]


def test_flag_ties_break_to_lower_index():
    scores = np.array([0.5, 0.9, 0.5, 0.5])
    flags = flag_outliers(scores, 0.5)  # m = 2
    assert list(np.flatnonzero(flags)) == [0, 1]


def test_flag_contamination_bounds():
    with pytest.raises(ParameterError):
        flag_outliers(np.ones(5), 0.0)
    with pytest.raises(ParameterError):
        flag_outliers(np.ones(5), 1.0)
