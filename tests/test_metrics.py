import math

import numpy as np
import pytest

from conftest import surrogate_survey, write_survey_csv
from spatialcpf.cpf import ClusterLabeling
from spatialcpf.errors import ParameterError
from spatialcpf.ingest import ELEMENTS, SampleTable, parse_g5_csv
from spatialcpf.metrics import calinski_harabasz, cluster_summary


def ch_oracle(features, labels):
    """Direct evaluation of the between/within dispersion ratio."""
    ids = sorted(set(labels))
    n, k = len(features), len(ids)
    mu = features.mean(axis=0)
    b = sum(np.sum(labels == c) * np.sum((features[labels == c].mean(axis=0) - mu) ** 2)
            for c in ids)
    w = sum(np.sum((features[labels == c] - features[labels == c].mean(axis=0)) ** 2)
            for c in ids)
    return (b / (k - 1)) / (w / (n - k))


def test_ch_matches_oracle_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        features = rng.normal(size=(100, 3))
        labels = rng.integers(0, 3, 100)
        got = calinski_harabasz(features, ClusterLabeling(labels=labels))
        want = ch_oracle(features, labels)
        assert got == pytest.approx(want, rel=1e-9)


def test_ch_two_singletons_is_inf():
    features = np.array([[0.0, 0.0], [1.0, 1.0]])
    labels = ClusterLabeling(labels=np.array([0, 1]))
    assert calinski_harabasz(features, labels) == math.inf


def test_ch_excludes_outliers_by_default():
    rng = np.random.default_rng(1)
    features = np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(10, 1, (40, 2)),
                          rng.normal(100, 1, (5, 2))])
    labels = np.array([0] * 40 + [1] * 40 + [-1] * 5)
    excl = calinski_harabasz(features, ClusterLabeling(labels=labels))
    incl = calinski_harabasz(features, ClusterLabeling(labels=labels),
                             include_outliers=True)
    assert excl == pytest.approx(ch_oracle(features[:80], labels[:80]), rel=1e-9)
    assert incl != pytest.approx(excl, rel=1e-6)


def test_ch_invariant_under_relabeling_and_reordering():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(60, 4))
    labels = rng.integers(0, 3, 60)
    base = calinski_harabasz(features, ClusterLabeling(labels=labels))
    relabeled = calinski_harabasz(features, ClusterLabeling(labels=(2 - labels)))
    perm = rng.permutation(60)
    reordered = calinski_harabasz(features[perm], ClusterLabeling(labels=labels[perm]))
    assert relabeled == pytest.approx(base, rel=1e-12)
    assert reordered == pytest.approx(base, rel=1e-9)


def test_ch_scale_invariance():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(50, 3))
    labels = ClusterLabeling(labels=rng.integers(0, 2, 50))
    base = calinski_harabasz(features, labels)
    scaled = calinski_harabasz(7.3 * features, labels)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_ch_parameter_errors():
    features = np.zeros((5, 2)) + np.arange(5)[:, None]
    with pytest.raises(ParameterError):
        calinski_harabasz(features, ClusterLabeling(labels=np.zeros(5, dtype=int)))
    with pytest.raises(ParameterError):
        # only one cluster left after outlier exclusion
        calinski_harabasz(features, ClusterLabeling(labels=np.array([-1, -1, -1, 0, 0])))


def make_table(tmp_path, n=40, seed=0):
    path = tmp_path / "t.csv"
    write_survey_csv(path, *surrogate_survey(n=n, seed=seed))
    return parse_g5_csv(path)


def test_summary_single_sample_cluster(tmp_path):
    table = make_table(tmp_path, n=5)
    labels = ClusterLabeling(labels=np.array([0, 1, 1, 1, 1]))
    summary = cluster_summary(table, labels)
    s = summary.stats[(0, "As")]
    value = table.concentrations[0, ELEMENTS.index("As")]
    assert s.median == s.q1 == s.q3 == pytest.approx(value)
    assert s.iqr == 0.0
    assert s.whisker_low == s.whisker_high == pytest.approx(value)


def test_summary_linear_interpolation_quartiles(tmp_path):
    # {1, 2, 3, 4}: median 2.5, Q1 1.75, Q3 3.25.
    q1, med, q3 = np.quantile([1.0, 2.0, 3.0, 4.0], [0.25, 0.5, 0.75])
    assert med == pytest.approx(2.5)
    assert q1 == pytest.approx(1.75)
    assert q3 == pytest.approx(3.25)


def test_summary_quartile_ordering_and_sizes(tmp_path):
    table = make_table(tmp_path, n=60, seed=4)
    rng = np.random.default_rng(0)
    labels = ClusterLabeling(labels=rng.integers(0, 3, 60))
    summary = cluster_summary(table, labels)
    for element in ELEMENTS:
        assert sum(stats.size for (_, e), stats in summary.stats.items() if e == element) == 60
    for stats in summary.stats.values():
        assert stats.q1 <= stats.median <= stats.q3
        assert stats.whisker_low <= stats.median <= stats.whisker_high


def test_summary_q3_monotone_when_adding_maximum():
    values_small = np.array([1.0, 2.0, 3.0, 4.0])
    values_big = np.append(values_small, 100.0)
    q3_small = np.quantile(values_small, 0.75)
    q3_big = np.quantile(values_big, 0.75)
    assert q3_big >= q3_small


def test_summary_outlier_group_and_log10(tmp_path):
    table = make_table(tmp_path, n=30, seed=5)
    labels = np.zeros(30, dtype=int)
    labels[25:] = -1
    summary = cluster_summary(table, ClusterLabeling(labels=labels), log10_export=True)
    assert (-1, "Zn") in summary.stats
    raw = summary.stats[(0, "Zn")]
    logged = summary.log10_stats[(0, "Zn")]
    assert logged.size == raw.size
    values = table.concentrations[:25, ELEMENTS.index("Zn")]
    assert logged.median == pytest.approx(np.quantile(np.log10(values), 0.5))
    assert np.all(np.isfinite([logged.q1, logged.q3, logged.whisker_low,
                               logged.whisker_high]))


def test_summary_warns_of_empty_cluster_and_keeps_the_rest(tmp_path):
    table = make_table(tmp_path, n=9)
    labels = np.array([0, 2, -1, 0, 2, -1, 0, 2, 2])
    with pytest.warns(UserWarning) as raised:
        summary = cluster_summary(table, ClusterLabeling(labels=labels))
    assert [str(w.message) for w in raised] == ["cluster 1 is empty; excluded from summary"]
    assert {c for c, _ in summary.stats} == {0, 2, -1}
    zn = table.concentrations[:, ELEMENTS.index("Zn")]
    for c in (0, 2, -1):
        stats = summary.stats[(c, "Zn")]
        assert stats.size == np.sum(labels == c)
        assert stats.median == np.quantile(zn[labels == c], 0.5)


def test_summary_beyond_whisker_points(tmp_path):
    table = make_table(tmp_path, n=12, seed=6)
    # Force one extreme Mn value.
    conc = table.concentrations.copy()
    conc[0, ELEMENTS.index("Mn")] = 1e6
    table = SampleTable(site_ids=table.site_ids, itm=table.itm, concentrations=conc)
    labels = ClusterLabeling(labels=np.zeros(12, dtype=int))
    summary = cluster_summary(table, labels)
    s = summary.stats[(0, "Mn")]
    assert 1e6 in s.outlier_values
    assert s.whisker_high < 1e6
