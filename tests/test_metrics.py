import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_summary
from conftest import summary_row, surrogate_survey, write_survey_csv
from spatialcpf.cpf import ClusterLabeling
from spatialcpf.errors import ParameterError, SpatialCpfError
from spatialcpf.ingest import ELEMENTS, SampleTable, parse_g5_csv
from spatialcpf.metrics import calinski_harabasz, cluster_summary
from spatialcpf.pipeline import export_plot_data, write_summary


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
    s = summary_row(summary, 0, "As")
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
    element = np.array(summary.element)
    for name in ELEMENTS:
        assert summary.stats["size"][element == name].sum() == 60
    s = summary.stats
    assert np.all((s["q1"] <= s["median"]) & (s["median"] <= s["q3"]))
    assert np.all((s["whisker_low"] <= s["median"]) & (s["median"] <= s["whisker_high"]))


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
    summary_row(summary, -1, "Zn")
    raw = summary_row(summary, 0, "Zn")
    logged = summary_row(summary, 0, "Zn", scale="log10")
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
    assert set(summary.cluster.tolist()) == {0, 2, -1}
    zn = table.concentrations[:, ELEMENTS.index("Zn")]
    for c in (0, 2, -1):
        stats = summary_row(summary, c, "Zn")
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
    s = summary_row(summary, 0, "Mn")
    assert 1e6 in s.beyond_whiskers
    assert s.whisker_high < 1e6


def test_summary_value_on_fence_is_inside():
    # {1, 2, 3, 4, 7}: Q1 2, Q3 4, so the upper fence is 4 + 1.5 * 2 = 7 and
    # 7 is the whisker; 7.5 lies beyond it.
    for top, whisker, beyond in ((7.0, 7.0, []), (7.5, 4.0, [7.5])):
        conc = np.tile([[1.0], [2.0], [3.0], [4.0], [top]], (1, len(ELEMENTS)))
        table = SampleTable(site_ids=tuple("ABCDE"), itm=np.tile([6e5, 7.5e5], (5, 1)),
                            concentrations=conc)
        summary = cluster_summary(table, ClusterLabeling(labels=np.zeros(5, dtype=int)))
        s = summary_row(summary, 0, "Cu")
        assert (s.q1, s.q3, s.whisker_low, s.whisker_high) == (2.0, 4.0, 1.0, whisker)
        assert s.beyond_whiskers == beyond


@st.composite
def summary_columns(draw, n):
    """An (n, 15) concentration matrix, each column drawn as one of: a
    constant, small integers (many ties, and values exactly on a fence),
    zeros among positive values, or any finite non-negative floats."""
    columns = []
    for _ in ELEMENTS:
        kind = draw(st.sampled_from(["constant", "integers", "zeros", "floats"]))
        if kind == "constant":
            columns.append([draw(st.floats(0.0, 1e4))] * n)
        elif kind == "integers":
            scale = draw(st.sampled_from([1.0, 0.25, 1e3]))
            columns.append([scale * v for v in draw(st.lists(st.integers(0, 8),
                                                             min_size=n, max_size=n))])
        else:
            low = 0.0 if kind == "floats" else 1.0
            column = draw(st.lists(st.floats(low, allow_infinity=False),
                                   min_size=n, max_size=n))
            if kind == "zeros":
                column = [v if draw(st.booleans()) else 0.0 for v in column]
            columns.append(column)
    return np.array(columns, dtype=float).T


def summary_files(summary, tmp_path):
    """summary.csv and plot_data.csv as the pipeline writes them, as text."""
    return tuple(write(summary, tmp_path / name).read_text(encoding="utf-8")
                 for write, name in ((write_summary, "summary.csv"),
                                     (export_plot_data, "plot_data.csv")))


def summary_outcome(summarize):
    """summarize()'s result and the UserWarnings it raised, or its error's
    class and message."""
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        try:
            result = summarize()
        except SpatialCpfError as exc:
            return type(exc), str(exc)
    return result, [str(w.message) for w in raised if w.category is UserWarning]


def test_cluster_summary_memory_bounded():
    # Each cluster's box plots work on one copy of its rows, lifted, logged
    # and sorted in place, so no float table of every sample is built. A
    # whole-table log10 of the lifted values, with the lifted copy beside
    # it, brings tracemalloc's peak here to about 2.3 MiB.
    rng = np.random.default_rng(0)
    n = 8000
    conc = rng.lognormal(2.0, 1.0, size=(n, len(ELEMENTS)))
    conc[rng.random(conc.shape) < 0.05] = 0.0
    table = SampleTable(site_ids=tuple(map(str, range(n))), itm=np.zeros((n, 2)),
                        concentrations=conc)
    labeling = ClusterLabeling(labels=np.arange(n) % 2)
    tracemalloc.start()
    try:
        cluster_summary(table, labeling, log10_export=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


# SPATIALCPF_FUZZ_EXAMPLES sets the examples (CI runs 3000).
@settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "150")), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 20), n_labels=st.integers(0, 4),
       log10_export=st.booleans())
def test_summary_files_equal_oracle(tmp_path, data, n, n_labels, log10_export):
    # Labels in [-1, n_labels): n_labels 0 gives only outliers; a label
    # below the largest that no sample draws is an empty cluster.
    labels = np.array(data.draw(st.lists(st.integers(-1, n_labels - 1), min_size=n,
                                         max_size=n)), dtype=np.int64)
    conc = data.draw(summary_columns(n))
    table = SampleTable(site_ids=tuple(map(str, range(n))), itm=np.zeros((n, 2)),
                        concentrations=conc)
    labeling = ClusterLabeling(labels=labels)

    def oracle_files():
        summary = oracle_summary.cluster_summary(conc, labels, labeling.n_clusters, log10_export)
        return oracle_summary.summary_text(summary), oracle_summary.plot_data_text(summary)

    got = summary_outcome(lambda: summary_files(
        cluster_summary(table, labeling, log10_export=log10_export), tmp_path))
    assert got == summary_outcome(oracle_files)
