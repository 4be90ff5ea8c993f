"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The end-to-end reproduction test requires the public survey CSV;
point SPATIALCPF_G5 at it (or place it at data/G5.csv) to enable it.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import surrogate_survey, two_blob_dataset, write_survey_csv
from oracle_tm import itm_oracle
from spatialcpf.cpf import CpfParams, fit, peak_rss_mib
from spatialcpf.geodesy import itm_to_wgs84, wgs84_to_itm
from spatialcpf.graph import connected_components, mutual_knn_graph
from spatialcpf.iforest import anomaly_scores, fit_iforest, flag_outliers
from spatialcpf.metrics import calinski_harabasz
from spatialcpf.pipeline import PipelineConfig, run_pipeline
from test_graph import bfs_components, brute_force_mutual_knn, make_graph
from test_metrics import ch_oracle


def report(line):
    print(f"\n[ACCEPTANCE] {line}")


def test_criterion_1_graph_oracle_equivalence():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(200, 2))
        for k in (1, 5, 20):
            start = time.perf_counter()
            adj = mutual_knn_graph(points, k=k)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"seed={seed} k={k} took {elapsed:.2f}s"
            assert adj.edge_set() == brute_force_mutual_knn(points, k)
    report("1 graph oracle equivalence: PASS (10 seeds x k in {1,5,20}, < 1 s each)")


def test_criterion_2_component_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(50):
        n = 64
        mask = rng.uniform(size=(n, n)) < 0.05
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
        cc = connected_components(make_graph(n, edges))
        assert list(cc.labels) == bfs_components(n, edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"2 component oracle equivalence: PASS (50 graphs in {elapsed:.2f} s)")


def test_criterion_3_geodesy_accuracy():
    for e in np.linspace(440000, 760000, 10):
        for n in np.linspace(530000, 960000, 10):
            lat, lon = itm_to_wgs84(e, n)
            e2, n2 = wgs84_to_itm(lat, lon)
            assert math.hypot(e2 - e, n2 - n) < 1e-4

    lat, lon = itm_to_wgs84(600000.0, 750000.0)
    assert abs(lat - 53.5) < 1e-9 and abs(lon + 8.0) < 1e-9

    # Control point, frozen from the independent Redfearn/quadrature oracle.
    e, n = wgs84_to_itm(53.349805, -6.260310)
    assert math.hypot(e - 715825.827311, n - 734698.132703) < 0.01
    oracle_e, oracle_n = itm_oracle().forward(53.349805, -6.260310)
    assert math.hypot(e - oracle_e, n - oracle_n) < 0.01
    report("3 geodesy accuracy: PASS (round trip < 1e-4 m, control point < 0.01 m)")


def test_criterion_4_ch_oracle_equivalence():
    rng = np.random.default_rng(1)
    from spatialcpf.cpf import ClusterLabeling
    for _ in range(100):
        features = rng.normal(size=(rng.integers(30, 120), rng.integers(2, 8)))
        labels = rng.integers(0, rng.integers(2, 5), features.shape[0])
        got = calinski_harabasz(features, ClusterLabeling(labels=labels))
        want = ch_oracle(features, labels)
        assert abs(got - want) <= 1e-9 * abs(want)
    report("4 CH oracle equivalence: PASS (100 random instances, 1e-9 relative)")


def test_criterion_5_iforest_count_rule():
    rng = np.random.default_rng(2)
    for contamination in (0.01, 0.1, 0.3, 0.5):
        for n in range(1, 1001):
            scores = rng.uniform(size=n)
            expected = int(math.floor(contamination * n + 0.5))
            got = int(flag_outliers(scores, contamination).sum())
            assert got == expected, (n, contamination)
    assert int(flag_outliers(rng.uniform(size=682), 0.30).sum()) == 205
    report("5 isolation forest count rule: PASS (n=1..1000 x 4 rates; 682 @ 0.30 -> 205)")


def test_criterion_6_planted_anomaly_recall():
    recalls = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        blob = rng.normal(0.0, 1.0, (1000, 5))
        directions = rng.normal(size=(50, 5))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        features = np.vstack([blob, 10.0 * directions])
        model = fit_iforest(features, n_trees=200, subsample_size=256, seed=seed)
        flags = flag_outliers(anomaly_scores(model, features), 0.05)
        recalls.append(flags[1000:].mean())
    mean_recall = float(np.mean(recalls))
    assert mean_recall >= 0.95
    report(f"6 planted-anomaly recall: PASS (mean recall {mean_recall:.3f} over 20 seeds)")


def blob_params():
    return CpfParams(min_samples=50, rho=0.01, alpha=0.015,
                     merge_threshold=5.0, density_ratio_threshold=0.01)


def test_criterion_7_synthetic_clustering_recovery():
    for seed in range(10):
        features, geo, truth = two_blob_dataset(seed)
        geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
        labeling = fit(features, geo_adj, blob_params()).labeling
        assert labeling.n_clusters == 2, seed
        assert labeling.n_outliers == 0, seed
        match = (np.array_equal(labeling.labels == 0, truth == 0)
                 or np.array_equal(labeling.labels == 1, truth == 0))
        assert match, seed
    report("7 synthetic clustering recovery: PASS (2 clusters, 0 outliers, 10 seeds)")


def test_criterion_8_cpf_invariant_suite():
    # Determinism.
    features, geo, _ = two_blob_dataset(0)
    geo_adj = mutual_knn_graph(geo, k=50, metric="haversine")
    r1 = fit(features, geo_adj, blob_params())
    r2 = fit(features, geo_adj, blob_params())
    assert np.array_equal(r1.labeling.labels, r2.labeling.labels)
    assert np.array_equal(r1.density.log_density, r2.density.log_density)

    # Permutation-equivariance.
    rng = np.random.default_rng(123)
    perm = rng.permutation(len(features))
    geo_adj_p = mutual_knn_graph(geo[perm], k=50, metric="haversine")
    rp = fit(features[perm], geo_adj_p, blob_params())
    base_sets = {frozenset(np.flatnonzero(r1.labeling.labels == c))
                 for c in range(r1.labeling.n_clusters)}
    perm_sets = {frozenset(perm[np.flatnonzero(rp.labeling.labels == c)])
                 for c in range(rp.labeling.n_clusters)}
    assert base_sets == perm_sets

    # Merge monotonicity over a 5-value sweep.
    counts = []
    for thr in (0.0, 1.0, 3.0, 10.0, 50.0):
        params = CpfParams(min_samples=50, rho=0.01, alpha=0.015,
                           merge_threshold=thr, density_ratio_threshold=0.01)
        counts.append(fit(features, geo_adj, params).labeling.n_clusters)
    assert all(b <= a for a, b in zip(counts, counts[1:]))

    # Outlier count equals small-component mass (sparser graph to strand points).
    feat2, geo2, _ = two_blob_dataset(4, n_per_blob=80)
    adj2 = mutual_knn_graph(geo2, k=8, metric="haversine")
    params2 = CpfParams(min_samples=8, rho=0.01, alpha=0.015,
                        merge_threshold=5.0, density_ratio_threshold=0.01)
    res2 = fit(feat2, adj2, params2)
    floor = params2.component_size_floor
    small = sum(s for s in res2.components.component_sizes.values() if s < floor)
    assert res2.labeling.n_outliers == small
    report("8 CPF invariant suite: PASS (equivariance, monotone merge, "
           "determinism, outlier mass)")


def _g5_path():
    env = os.environ.get("SPATIALCPF_G5")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "G5.csv"
    return default if default.exists() else None


@pytest.mark.skipif(_g5_path() is None,
                    reason="public G5 survey CSV not available (set SPATIALCPF_G5)")
def test_criterion_9_g5_end_to_end(tmp_path):
    cfg = {
        "input": str(_g5_path()),
        "output_dir": str(tmp_path / "g5_out"),
        "cpf": {"min_samples": 75, "rho": 0.01, "alpha": 0.015,
                "merge_threshold": 7.5, "density_ratio_threshold": 0.7},
        "iforest": {"contamination": 0.30},
        "seed": 0,
    }
    cfg_path = tmp_path / "g5.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    start = time.perf_counter()
    config = PipelineConfig.from_file(cfg_path)
    result = run_pipeline(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert 5 <= result["n_clusters"] <= 12
    assert result["cluster_sizes"][0] > 0.45 * result["n_samples"]
    outlier_fraction = result["n_outliers"] / result["n_samples"]
    assert 0.08 <= outlier_fraction <= 0.24
    report(f"9 G5 end-to-end: PASS ({result['n_clusters']} clusters, "
           f"{result['n_outliers']} outliers, CH {result['calinski_harabasz']}, "
           f"{elapsed:.1f} s)")


def test_criterion_10_performance(tmp_path):
    rng = np.random.default_rng(0)
    geo = np.stack([rng.uniform(52.2, 54.5, 4278), rng.uniform(-10.0, -6.2, 4278)],
                   axis=1)
    start = time.perf_counter()
    mutual_knn_graph(geo, k=75, metric="haversine")
    build = time.perf_counter() - start
    assert build < 5.0

    # Full pipeline at survey scale on the synthetic surrogate; peak RSS < 1 GB.
    csv_path = tmp_path / "surrogate.csv"
    write_survey_csv(csv_path, *surrogate_survey(n=4278, seed=0, n_regions=5))
    cfg = {
        "input": str(csv_path),
        "output_dir": str(tmp_path / "out"),
        "cpf": {"min_samples": 75, "rho": 0.01, "alpha": 0.015,
                "merge_threshold": 7.5, "density_ratio_threshold": 0.7},
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    run_pipeline(PipelineConfig.from_file(cfg_path))
    peak = peak_rss_mib()
    assert peak < 1024
    try:
        import psutil
    except ImportError:
        pass
    else:
        assert psutil.Process().memory_info().rss < 1 << 30
    report(f"10 performance: PASS (kNN build {build:.2f} s, peak RSS {peak:.0f} MiB)")
