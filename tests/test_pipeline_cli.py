import csv
import gc
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_geojson
from conftest import summary_row, surrogate_survey, write_survey_csv
from spatialcpf import cpf, graph, ingest, pipeline, stand_ins
from spatialcpf.cli import main
from spatialcpf.cpf import ClusterLabeling, CpfParams
from spatialcpf.errors import DataError, ParameterError
from spatialcpf.metrics import cluster_summary
from spatialcpf.pipeline import (FILES, PipelineConfig, StageError,
                                 export_geojson, export_plot_data, run_pipeline)


def make_config(tmp_path, survey_csv, **overrides):
    cfg = {
        "input": str(survey_csv),
        "output_dir": str(tmp_path / "out"),
        "cpf": {"min_samples": 20, "rho": 0.01, "alpha": 0.015,
                "merge_threshold": 3.0, "density_ratio_threshold": 0.1},
        "iforest": {"n_trees": 50, "subsample_size": 64, "contamination": 0.3},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_run_pipeline_end_to_end(tmp_path, survey_csv):
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    report = run_pipeline(config)
    assert report["n_samples"] == 400
    assert report["n_clusters"] >= 1
    assert sum(report["cluster_sizes"]) == 400 - report["n_outliers"]
    assert set(report["stage_seconds"]) == {
        "ingest", "project", "graph", "cluster", "refine", "summarize", "export"}
    for name in FILES.values():
        assert (config.path(name)).exists()


def test_report_run_diagnostics(tmp_path, survey_csv):
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    report = run_pipeline(config)
    lab = pipeline.read_labeling(config.path(FILES["labeling"]))
    _, sizes = np.unique(lab["component_id"], return_counts=True)
    assert report["n_components"] == sizes.size
    assert report["largest_component"] == sizes.max()
    assert report["n_stranded"] == sizes[sizes < 20].sum() == report["n_outliers"]
    assert 0 < report["intersected_edges"] < 400 * 20 / 2
    assert report["geo_edges"] == graph.load_adjacency(config.path(FILES["adjacency"])).n_edges
    samples = ingest.parse_g5_csv(config.path(FILES["samples"]))
    features = ingest.standardize(samples.concentrations)[0]
    feature_graph = graph.mutual_knn_graph(features, k=20)
    assert report["feature_edges"] == feature_graph.n_edges
    assert report["intersected_edges"] <= min(report["geo_edges"], report["feature_edges"])
    # The intersected graph's degrees, counted edge by edge.
    geo_edges = graph.load_adjacency(config.path(FILES["adjacency"])).edge_set()
    degree = Counter(v for edge in geo_edges & feature_graph.edge_set() for v in edge)
    degrees = [degree[i] for i in range(400)]
    assert report["geo_edges_kept_fraction"] == report["intersected_edges"] / report["geo_edges"]
    assert report["n_isolated"] == degrees.count(0)
    assert report["intersected_degree_quartiles"] == np.percentile(degrees, [25, 50, 75]).tolist()
    histogram = report["component_size_histogram"]
    assert histogram == {str(size): count for size, count in Counter(sizes.tolist()).items()}
    assert sum(int(size) * count for size, count in histogram.items()) == report["n_samples"]
    assert report["n_centers"] >= report["n_clusters"]
    assert list(report["fit_seconds"]) == ["knn", "mutual", "intersect", "components", "density",
                                           "big_brother", "centers", "merge", "assign"]
    assert all(t >= 0 for t in report["fit_seconds"].values())
    assert sum(report["fit_seconds"].values()) <= report["stage_seconds"]["cluster"]
    assert report["peak_rss_mib"] > 0
    stage_rss = report["stage_peak_rss_mib"]
    assert list(stage_rss) == list(pipeline.STAGES)
    values = list(stage_rss.values())
    assert 0 < values[0] and values == sorted(values) and values[-1] <= report["peak_rss_mib"]
    # The peak at the end of each fit phase, inside the cluster stage.
    fit_rss = report["fit_peak_rss_mib"]
    assert list(fit_rss) == list(report["fit_seconds"])
    phases = list(fit_rss.values())
    assert stage_rss["graph"] <= phases[0] and phases == sorted(phases)
    assert phases[-1] <= stage_rss["cluster"]
    assert report["threads"] == graph.THREADS >= 1
    assert json.loads(config.path(FILES["report"]).read_text()) == report
    # The cluster stage's figures and the run's own, none lost in the merge.
    assert set(report) == {
        "n_samples", "n_clusters", "cluster_sizes", "n_outliers", "calinski_harabasz",
        "n_flagged", "geo_edges", "feature_edges", "intersected_edges", "n_components",
        "largest_component", "component_size_histogram", "n_centers", "n_stranded",
        "geo_edges_kept_fraction", "n_isolated", "intersected_degree_quartiles",
        "stage_seconds", "write_seconds", "fit_seconds", "fit_peak_rss_mib", "peak_rss_mib",
        "peak_rss_growth_mib", "stage_peak_rss_mib", "threads", "warnings", "config", "seed"}


def test_run_holds_no_graph_or_fit_past_cluster(tmp_path, survey_csv, monkeypatch):
    # The cluster stage takes the report's graph and fit figures itself, so
    # the store holds neither the geographic graph nor a fit once it ends,
    # and nothing reads the graph back from its file.
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    seen, refine = [], pipeline.STAGES["refine"]

    def run(s):
        seen.append({key for key in ("adjacency", "fit") if key in s})
        refine.run(s)

    monkeypatch.setitem(pipeline.STAGES, "refine", refine._replace(run=run))
    monkeypatch.setattr(graph, "load_adjacency", mock.Mock(side_effect=AssertionError))
    report = run_pipeline(config)
    assert seen == [set()]
    assert report["geo_edges"] > 0


def test_report_peak_rss_growth_per_run(tmp_path, survey_csv):
    # Two runs in one process: peak_rss_mib is the process's high-water mark,
    # peak_rss_growth_mib each run's own rise of it.
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    for _ in range(2):
        report = run_pipeline(config)
        assert 0 <= report["peak_rss_growth_mib"] <= report["peak_rss_mib"]


def test_report_write_seconds_per_artifact(tmp_path, survey_csv):
    # Each artifact's writer time, inside the seconds of the stage that writes it.
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    report = run_pipeline(config)
    writes = report["write_seconds"]
    assert set(writes) == set(FILES) - {"report"}
    assert all(t >= 0 for t in writes.values())
    for name, stage in pipeline.STAGES.items():
        written = [writes[key] for key in stage.outputs if key in writes]
        assert sum(written) <= report["stage_seconds"][name] + 1e-3, name


def test_survey_scale_peak_rss_in_fresh_process(tmp_path):
    # A fresh interpreter, so that the ru_maxrss high-water mark behind the
    # report's peak_rss_mib belongs to this one run.
    csv_path = tmp_path / "surrogate.csv"
    write_survey_csv(csv_path, *surrogate_survey(n=4278, seed=0, n_regions=5))
    # The default cpf and iforest settings, which are the paper's.
    cfg_path = make_config(tmp_path, csv_path, cpf={}, iforest={})
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "spatialcpf.cli", "run",
                             "--config", str(cfg_path)],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["n_samples"] == 4278
    assert 0 < report["peak_rss_mib"] < 256


def test_release_memory_returns_freed_heap_pages():
    # Freeing a 16 MiB block raises glibc's mmap threshold, so a thread's
    # later 1 MiB blocks come from its arena's heap, as graph.map_blocks'
    # temporaries do, and their pages stay resident once freed.
    if not Path("/proc/self/statm").exists():
        pytest.skip("no /proc/self/statm to read RSS from")
    out = run_python(
        "import os, threading, numpy as np\n"
        "from spatialcpf import cpf\n"
        "def rss_mib():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGESIZE') / 2**20\n"
        "np.ones(2 << 20)\n"
        "def work():\n"
        "    blocks = [np.ones(1 << 17) for _ in range(32)]\n"
        "thread = threading.Thread(target=work)\n"
        "thread.start()\n"
        "thread.join()\n"
        "before = rss_mib()\n"
        "cpf.release_memory()\n"
        "print(cpf._MALLOC_TRIM is not None, before - rss_mib())\n")
    found, released = out.split()
    if found == "False":
        pytest.skip("the C library has no malloc_trim")
    assert float(released) > 16


def test_run_pipeline_releases_memory_after_every_stage_and_fit_phase(
        tmp_path, survey_csv, monkeypatch):
    calls = []
    monkeypatch.setattr(cpf, "_MALLOC_TRIM", calls.append)
    report = run_pipeline(PipelineConfig.from_file(make_config(tmp_path, survey_csv)))
    assert calls == [0] * (len(report["stage_seconds"]) + len(report["fit_seconds"])) == [0] * 16


def test_artifacts_identical_without_malloc_trim(tmp_path, survey_csv, monkeypatch):
    # Where the C library has no malloc_trim, release_memory does nothing,
    # and the run writes the same bytes.
    configs = [PipelineConfig.from_file(make_config(tmp_path, survey_csv,
                                                    output_dir=str(tmp_path / name)))
               for name in ("trimmed", "untrimmed")]
    run_pipeline(configs[0])
    monkeypatch.setattr(cpf, "_MALLOC_TRIM", None)
    run_pipeline(configs[1])
    names = [name for name in FILES.values() if name != "report.json"]
    assert len(names) == 7
    for name in names:
        assert configs[0].path(name).read_bytes() == configs[1].path(name).read_bytes(), name


def run_python(code: str) -> str:
    """The standard output of code run in a fresh interpreter that imports
    this checkout's spatialcpf."""
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_leaves_unused_scipy_unloaded():
    # Components are labelled in numpy, and graph loads scipy's kd-tree
    # extension with stand-ins for the scipy.spatial package and for the
    # scipy.sparse and scipy._lib._util it imports; cpf measures distances in
    # numpy. Each of these modules, with what it pulls in, would add to
    # every run's import RSS: csgraph about 3 MiB, scipy.spatial with
    # distance and linalg about 15 MiB, scipy.sparse and _util (which brings
    # _array_api, numpy.f2py and numpy.testing) about 20 MiB.
    unused = ["scipy.sparse.csgraph", "scipy.spatial", "scipy.spatial.distance", "scipy.linalg",
              "scipy.sparse", "scipy._lib._util", "scipy._lib._array_api", "numpy.f2py",
              "numpy.testing"]
    loaded = run_python(f"import sys, spatialcpf.cli; "
                        f"print([m for m in {unused!r} if m in sys.modules])")
    assert loaded.strip() == "[]"


def test_run_leaves_numpy_ma_and_openssl_unloaded(tmp_path, survey_csv):
    # Every quantile of a run is taken by index arithmetic
    # (cpf.sorted_quantiles), not by np.quantile, whose np.unique loads
    # numpy.ma; and numpy.random loads with a stand-in secrets, so neither
    # secrets nor hashlib and OpenSSL's _hashlib is imported. (numpy 1.x
    # imports numpy.random and numpy.ma with numpy itself, so there the run
    # can only add none of them.) The stand-in is gone once numpy.random
    # has loaded, so secrets then imports the real module. With
    # numpy.random imported before the run, when no stand-in is used, the
    # forest scores the outliers the same.
    runs = []
    for name, before in (("plain", ""), ("preloaded", "import numpy.random")):
        (tmp_path / name).mkdir()
        config = make_config(tmp_path / name, survey_csv)
        runs.append((config, json.loads(run_python(f"""
import json, sys
import numpy
names = ("numpy.ma", "secrets", "hashlib", "_hashlib")
with_numpy = [m for m in names if m in sys.modules]
{before}
from spatialcpf.pipeline import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig.from_file({str(config)!r}))
loaded = [m for m in names if m in sys.modules and m not in with_numpy]
import secrets
print(json.dumps([loaded, "token_hex" in vars(secrets), len(secrets.token_hex(8))]))
"""))))
    (plain, (loaded, real, hex_length)), (preloaded, _) = runs
    assert loaded == [] and real and hex_length == 16
    labeling = [PipelineConfig.from_file(config).path(FILES["labeling"])
                for config in (plain, preloaded)]
    assert np.isfinite(pipeline.read_labeling(labeling[0])["anomaly_score"]).sum() >= 2
    assert labeling[0].read_bytes() == labeling[1].read_bytes()


@pytest.mark.parametrize("first, second", [("spatialcpf.graph", "scipy.spatial"),
                                           ("scipy.spatial", "spatialcpf.graph"),
                                           ("scipy.sparse", "spatialcpf.graph")])
def test_kd_tree_class_is_scipys_in_either_import_order(first, second):
    # Loaded alone, the extension is registered under its own name, so
    # scipy.spatial imported later takes the same module; imported earlier,
    # its module is the one graph uses. A scipy.sparse imported earlier is
    # used as it is, with no stand-in put in its place. Either way
    # scipy.spatial is then the real package, not the stand-in graph's
    # import used (which would forward cKDTree too): it has a file, KDTree
    # and its distance submodule.
    out = run_python(f"import {first}; import scipy.sparse as before; import {second}, "
                     "spatialcpf.graph, scipy.spatial, scipy.sparse, scipy.spatial.distance; "
                     "print(spatialcpf.graph.cKDTree is scipy.spatial.cKDTree, "
                     "before is scipy.sparse, hasattr(before, 'coo_matrix'), "
                     "hasattr(scipy.spatial, '__file__'), hasattr(scipy.spatial, 'KDTree'), "
                     "callable(scipy.spatial.distance.cdist))")
    assert out.split() == ["True"] * 6


def test_kd_tree_extension_defers_sparse_to_its_use():
    # After graph's import no stand-in is left: scipy.sparse imports the real
    # package, which sparse_distance_matrix uses for each output type, and
    # the extension holds the real _util's copy_if_needed.
    out = run_python("""
import json, sys
from spatialcpf import graph
left = [name for name in ("scipy.sparse", "scipy._lib._util") if name in sys.modules]
import scipy.sparse
import scipy._lib._util
extension = sys.modules["scipy.spatial._ckdtree"]
tree = graph.cKDTree([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
kinds = {kind: type(tree.sparse_distance_matrix(tree, 1.5, output_type=kind)).__name__
         for kind in ("dok_matrix", "coo_matrix", "dict", "ndarray")}
sentinel = object()
print(json.dumps([left, hasattr(scipy.sparse, "coo_matrix"), kinds,
                  getattr(extension, "copy_if_needed", sentinel)
                  is getattr(scipy._lib._util, "copy_if_needed", sentinel)]))
""")
    left, has_coo, kinds, same_copy = json.loads(out)
    assert left == [] and has_coo and same_copy
    assert kinds == {"dok_matrix": "dok_matrix", "coo_matrix": "coo_matrix",
                     "dict": "dict", "ndarray": "ndarray"}


def test_stand_in_forwards_names_it_does_not_hold(monkeypatch):
    # A stand-in asked for a name it does not hold takes itself out of
    # sys.modules and returns the real module's attribute; a dunder name,
    # which the import machinery probes, it does not forward.
    monkeypatch.delitem(sys.modules, "colorsys", raising=False)
    stand_in = stand_ins.stand_in("colorsys", held=1)
    monkeypatch.setitem(sys.modules, "colorsys", stand_in)
    with pytest.raises(AttributeError):
        stand_in.__path__
    assert stand_in.held == 1 and sys.modules["colorsys"] is stand_in
    forwarded = stand_in.rgb_to_hsv
    real = sys.modules["colorsys"]
    assert real is not stand_in and forwarded is real.rgb_to_hsv


def test_import_with_imports_a_submodule_without_its_package(tmp_path, monkeypatch):
    # A stand-in package holding the real package's __path__ lets a submodule
    # import without the package's __init__, which here raises. Afterwards
    # no stand-in is left, a module imported before is left as it is, and
    # the real package imports again. A submodule that raises ImportError
    # leaves neither a stand-in nor a half-made module behind.
    package = tmp_path / "throwaway_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("raise RuntimeError('package __init__ ran')\n")
    (package / "leaf.py").write_text("import json\nfrom throwaway_dep import held\n")
    (package / "broken.py").write_text("raise ImportError('broken submodule')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    names = ("throwaway_pkg", "throwaway_pkg.leaf", "throwaway_pkg.broken", "throwaway_dep")
    package_stand_in = stand_ins.stand_in("throwaway_pkg", __path__=[str(package)])
    try:
        leaf = stand_ins.import_with("throwaway_pkg.leaf", package_stand_in,
                                     stand_ins.stand_in("throwaway_dep", held=1),
                                     stand_ins.stand_in("json", dumps=None))
        assert leaf.held == 1 and leaf.json is json and sys.modules["json"] is json
        assert sys.modules["throwaway_pkg.leaf"] is leaf
        assert "throwaway_pkg" not in sys.modules and "throwaway_dep" not in sys.modules
        with pytest.raises(RuntimeError, match="package __init__ ran"):
            stand_ins.import_with("throwaway_pkg")
        with pytest.raises(ImportError, match="broken submodule"):
            stand_ins.import_with("throwaway_pkg.broken", package_stand_in)
        assert not {"throwaway_pkg", "throwaway_pkg.broken"} & set(sys.modules)
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_kd_tree_falls_back_to_public_import():
    # Where the import system finds no kd-tree extension for graph's own
    # import, graph takes the class from scipy.spatial: the same class and
    # the same knn result. The lookup is patched only for graph's import, so
    # that scipy.spatial's own import of the extension still finds it.
    rng = np.random.default_rng(5)
    points = np.round(rng.normal(size=(60, 3)), 1)
    out = run_python(f"""
import importlib.machinery, json, sys
import numpy as np
find_spec, missed = importlib.machinery.PathFinder.find_spec, []
def lookup(name, path=None, target=None):
    if name == "scipy.spatial._ckdtree" and not missed:
        missed.append(name)
        return None
    return find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = lookup
from spatialcpf import graph
package_loaded = "scipy.spatial" in sys.modules
import scipy.spatial
neighbors, radius = graph.knn(np.array({points.tolist()!r}), 4)
print(json.dumps([missed, package_loaded, graph.cKDTree is scipy.spatial.cKDTree,
                  neighbors.tolist(), radius.tolist()]))
""")
    missed, package_loaded, same_class, neighbors, radius = json.loads(out)
    assert missed == ["scipy.spatial._ckdtree"] and package_loaded and same_class
    want_neighbors, want_radius = graph.knn(points, 4)
    np.testing.assert_array_equal(neighbors, want_neighbors)
    np.testing.assert_array_equal(radius, want_radius)


def test_kd_tree_load_without_scipy_names_scipy():
    # Where scipy itself is not found, graph's lookup of scipy.spatial fails
    # and graph falls back to the public import, which names the missing
    # package.
    out = run_python("""
import importlib.machinery
find_spec = importlib.machinery.PathFinder.find_spec
def lookup(name, path=None, target=None):
    return None if name == "scipy" else find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = lookup
try:
    from spatialcpf import graph
except ModuleNotFoundError as exc:
    print(exc)
""")
    assert out.strip() == "No module named 'scipy'"


@pytest.mark.parametrize("caller_froze", [False, True])
def test_runs_freeze_gc_and_leave_callers_freeze(tmp_path, survey_csv, monkeypatch, caller_froze):
    # The stages run with the objects tracked before them frozen. After every
    # run, failed or not, the caller's freeze stands as it was: none if it
    # made none, else its objects still frozen (the count drops only by the
    # frozen objects the run freed).
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    failing = PipelineConfig.from_file(make_config(tmp_path, survey_csv, cpf={"min_samples": 400}))
    seen, fit = [], pipeline.cpf.fit
    monkeypatch.setattr(pipeline.cpf, "fit", lambda *a: seen.append(gc.get_freeze_count()) or fit(*a))
    sentinel = [object()]
    if caller_froze:
        gc.freeze()
    before = gc.get_freeze_count()

    def check():
        if caller_froze:
            assert 0 < gc.get_freeze_count() <= before
            # gc.get_objects() lists no object of the permanent generation.
            assert not any(o is sentinel for o in gc.get_objects())
        else:
            assert gc.get_freeze_count() == before == 0

    try:
        run_pipeline(config)
        check()
        for stage in ("ingest", "project", "graph", "cluster"):
            pipeline.run_stage(stage, config)
            check()
        with pytest.raises(ParameterError):
            pipeline.run_stage("graph", failing)
        check()
        with pytest.raises(StageError):
            run_pipeline(failing)
        check()
        assert len(seen) == 2 and min(seen) > 0
    finally:
        if caller_froze:
            gc.unfreeze()


def test_report_flag_count_rule(tmp_path, survey_csv):
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    report = run_pipeline(config)
    n_out = report["n_outliers"]
    expected = int(np.floor(0.3 * n_out + 0.5)) if n_out >= 2 else 0
    assert report["n_flagged"] == expected


def test_pipeline_deterministic_exports(tmp_path, survey_csv):
    cfg1 = PipelineConfig.from_file(make_config(tmp_path, survey_csv,
                                                output_dir=str(tmp_path / "a")))
    cfg2 = PipelineConfig.from_file(make_config(tmp_path, survey_csv,
                                                output_dir=str(tmp_path / "b")))
    run_pipeline(cfg1)
    run_pipeline(cfg2)
    for name in FILES.values():
        if name == "report.json":
            continue  # contains wall-clock timings
        assert cfg1.path(name).read_bytes() == cfg2.path(name).read_bytes()


def assert_staged_run_matches_run_pipeline(tmp_path, survey_csv, **overrides):
    whole = PipelineConfig.from_file(make_config(tmp_path, survey_csv, **overrides,
                                                 output_dir=str(tmp_path / "whole")))
    run_pipeline(whole)

    staged = PipelineConfig.from_file(make_config(tmp_path, survey_csv, **overrides,
                                                  output_dir=str(tmp_path / "staged")))
    pipeline.stage_ingest(staged)
    pipeline.stage_project(staged)
    pipeline.stage_graph(staged)
    pipeline.stage_cluster(staged)
    pipeline.stage_refine(staged)
    pipeline.stage_summarize(staged)
    pipeline.stage_export(staged)

    for name in FILES.values():
        if name == "report.json":
            continue
        assert whole.path(name).read_bytes() == staged.path(name).read_bytes(), name
    return json.loads(whole.path(FILES["report"]).read_text())


def test_staged_run_matches_run_pipeline(tmp_path, survey_csv):
    assert_staged_run_matches_run_pipeline(tmp_path, survey_csv)


def test_staged_run_matches_run_pipeline_cpf_defaults(tmp_path, survey_csv):
    # make_config's cpf settings leave most of the fixture as outliers; the
    # defaults give several clusters and no degenerate-result warning.
    report = assert_staged_run_matches_run_pipeline(tmp_path, survey_csv, cpf={})
    assert report["n_clusters"] > 2 and report["warnings"] == []


def test_staged_run_matches_run_pipeline_itm_raw_features(tmp_path, survey_csv):
    assert_staged_run_matches_run_pipeline(
        tmp_path, survey_csv, geo_metric="euclidean_itm",
        iforest={"n_trees": 50, "subsample_size": 64, "contamination": 0.3,
                 "features": "raw"},
        calinski_harabasz={"features": "raw"})


def test_staged_run_matches_run_pipeline_euclidean_degrees(tmp_path, survey_csv):
    assert_staged_run_matches_run_pipeline(tmp_path, survey_csv, geo_metric="euclidean_degrees")
    out = tmp_path / "staged"
    coords, _ = pipeline._read_coords(out / FILES["coords"])
    got = graph.load_adjacency(out / FILES["adjacency"])
    want = graph.mutual_knn_graph(coords, 20, metric="euclidean")
    assert got.n == want.n
    np.testing.assert_array_equal(got.edges, want.edges)


def test_run_pipeline_parses_once_and_reads_no_intermediate(tmp_path, survey_csv,
                                                           monkeypatch):
    calls = {}

    def count(module, name):
        fn = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(ingest, "parse_g5_csv")
    count(pipeline, "read_labeling")
    count(pipeline, "_read_coords")
    count(graph, "load_adjacency")
    writes = Counter()
    for module in (pipeline, graph):
        def counted_open(path, *args, open_=module.atomic_open, **kwargs):
            writes[Path(path)] += 1
            return open_(path, *args, **kwargs)
        monkeypatch.setattr(module, "atomic_open", counted_open)
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    run_pipeline(config)
    assert calls == {"parse_g5_csv": 1, "read_labeling": 0, "_read_coords": 0,
                     "load_adjacency": 0}
    assert writes == {config.path(name): 1 for name in FILES.values()}


def test_staged_reads_and_writes_go_through_module_functions(tmp_path, survey_csv,
                                                             monkeypatch):
    # The artifacts' readers and writers look the module's functions up when
    # called, so a wrapper set on the module (as the benchmark's tracer sets)
    # sees every staged read and write.
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    for stage in (pipeline.stage_ingest, pipeline.stage_project, pipeline.stage_graph,
                  pipeline.stage_cluster, pipeline.stage_refine):
        stage(config)
    calls = Counter()
    for name in ("read_labeling", "_read_coords", "_write_csv"):
        def counted(*args, name=name, fn=getattr(pipeline, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    pipeline.stage_export(config)
    # labeling.csv and coords.csv read once each; plot_data.csv written by
    # _write_csv, clusters.geojson by its own template.
    assert calls == {"read_labeling": 1, "_read_coords": 1, "_write_csv": 1}


def test_run_writes_no_numpy_scalar_repr(tmp_path, survey_csv):
    # Under numpy 2 a numpy scalar reaching csv would be written as np.float64(...).
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    run_pipeline(config)
    for name in FILES.values():
        if name.endswith(".csv"):
            assert "np." not in config.path(name).read_text(), name


def test_failed_rewrite_keeps_previous_file(tmp_path, survey_csv, monkeypatch):
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    for stage in (pipeline.stage_ingest, pipeline.stage_project, pipeline.stage_graph,
                  pipeline.stage_cluster):
        stage(config)
    labeling = config.path(FILES["labeling"])
    before = labeling.read_bytes()
    write = pipeline._write_csv

    class FailingColumn(list):
        """A column whose rows from 150 on cannot be read."""
        def __getitem__(self, rows):
            if rows.stop > 150:
                raise OSError("disk full")
            return list.__getitem__(self, rows)

    def failing_write(path, header, columns):
        return write(path, header, [FailingColumn(columns[0]), *columns[1:]])
    # The header and the first 100 rows are written before the write fails.
    monkeypatch.setattr(pipeline, "_ROWS", 100)
    monkeypatch.setattr(pipeline, "_write_csv", failing_write)
    with pytest.raises(OSError, match="disk full"):
        pipeline.stage_refine(config)
    assert labeling.read_bytes() == before
    assert sorted(os.listdir(config.output_dir)) == sorted(
        FILES[k] for k in ("samples", "coords", "adjacency", "labeling"))


def test_min_samples_too_large_aborts_with_stage(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv,
                           cpf={"min_samples": 400})
    config = PipelineConfig.from_file(cfg_path)
    with pytest.raises(StageError) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "graph"
    # Partial outputs removed.
    assert not config.path(FILES["samples"]).exists()


def test_unknown_config_key_rejected(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv, bogus=1)
    with pytest.raises(ParameterError, match="bogus"):
        PipelineConfig.from_file(cfg_path)
    for name, text, match in (
            ("bad.yaml", "input: [unclosed\n", "bad.yaml"),
            ("latin1.yaml", "input: caf\xe9\n", "latin1.yaml"),
            ("no_input.yaml", "seed: 0\n", "input")):
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParameterError, match=match):
            PipelineConfig.from_file(path)
    for section, value, match in (
            ("cpf", {"min_samples": 20, "bogus": 1}, r"cpf.*bogus"),
            ("iforest", {"n_tree": 5}, r"iforest.*n_tree"),
            ("calinski_harabasz", {"include_outlier": True},
             r"calinski_harabasz.*include_outlier"),
            ("iforest", [1, 2], "iforest"),
            ("cpf", None, "cpf")):
        cfg_path = make_config(tmp_path, survey_csv, **{section: value})
        with pytest.raises(ParameterError, match=match):
            PipelineConfig.from_file(cfg_path)


def test_config_round_trip(tmp_path, survey_csv):
    default = PipelineConfig(input=str(survey_csv))
    custom = PipelineConfig.from_dict({
        "input": str(survey_csv), "output_dir": str(tmp_path / "o"), "bdl_policy": "reject",
        "scaling": "none", "geo_metric": "euclidean_itm",
        "cpf": {"min_samples": 7, "rho": 0.2, "alpha": 0.5, "merge_threshold": 2.0,
                "density_ratio_threshold": 0.3, "min_component_size": 3},
        "iforest": {"n_trees": 9, "subsample_size": 16, "contamination": 0.1,
                    "features": "raw"},
        "calinski_harabasz": {"include_outliers": True, "features": "raw"},
        "log10_export": False, "seed": 5})
    assert custom.to_dict() != default.to_dict()
    for cfg in (default, custom):
        assert PipelineConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_example_config_matches_defaults(tmp_path, survey_csv):
    example = os.path.join(os.path.dirname(__file__), os.pardir, "config.example.yaml")
    with open(example, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["input"] = str(survey_csv)
    loaded = PipelineConfig.from_dict(raw)
    assert loaded.to_dict() == PipelineConfig(input=str(survey_csv)).to_dict()


def test_example_config_comments_list_declared_values():
    """Each `# a | b` comment of config.example.yaml lists exactly the
    values its setting declares."""
    def choices(cls, prefix=""):
        for f in fields(cls):
            kind, test = f.metadata["kind"], f.metadata["test"]
            if is_dataclass(kind):
                yield from choices(kind, f"{f.name}.")
            elif isinstance(test, tuple):
                yield prefix + f.name, test

    example = os.path.join(os.path.dirname(__file__), os.pardir, "config.example.yaml")
    listed, section = {}, ""
    with open(example, encoding="utf-8") as fh:
        for line in fh:
            text, _, comment = line.partition("#")
            name, colon, value = text.partition(":")
            if not colon:
                continue
            if not line[0].isspace():
                section = "" if value.strip() else f"{name}."
            if "|" in comment:
                listed[section + name.strip()] = tuple(v.strip() for v in comment.split("|"))
    assert set(listed) == {"bdl_policy", "scaling", "geo_metric", "iforest.features",
                           "calinski_harabasz.features"}
    assert listed == dict(choices(PipelineConfig))


def test_config_validation_errors(tmp_path, survey_csv):
    # A file where output_dir or a directory above it would be made.
    taken = tmp_path / "file"
    taken.write_text("")
    with pytest.raises(ParameterError):
        PipelineConfig.from_dict({"input": str(survey_csv), "geo_metric": "nope"})
    with pytest.raises(ParameterError):
        PipelineConfig.from_dict({"input": str(tmp_path / "missing.csv")})
    with pytest.raises(ParameterError):
        PipelineConfig.from_dict({"input": str(survey_csv),
                                  "iforest": {"contamination": 1.5}})
    for seed in (-1, 1.5, True, "0"):
        with pytest.raises(ParameterError, match="seed"):
            PipelineConfig.from_dict({"input": str(survey_csv), "seed": seed})
    for overrides, match in (
            ({"cpf": {"min_samples": "abc"}}, "min_samples"),
            ({"cpf": {"min_samples": True}}, "min_samples"),
            ({"cpf": {"rho": "0.01"}}, "rho"),
            ({"cpf": {"merge_threshold": float("nan")}}, "merge_threshold"),
            ({"cpf": {"min_component_size": 2.5}}, "min_component_size"),
            ({"iforest": {"n_trees": "5"}}, "n_trees"),
            ({"iforest": {"subsample_size": 64.0}}, "subsample_size"),
            ({"iforest": {"contamination": "0.3"}}, "contamination"),
            ({"iforest": {"n_trees": 0}}, r"iforest\.n_trees"),
            ({"iforest": {"subsample_size": 1}}, r"iforest\.subsample_size"),
            ({"log10_export": "no"}, "log10_export"),
            ({"log10_export": 0}, "log10_export"),
            ({"calinski_harabasz": {"include_outliers": "no"}}, "include_outliers"),
            ({"input": 5}, "input"),
            # A directory exists, but is no survey to read.
            ({"input": str(tmp_path)}, "^input must be an existing file"),
            ({"output_dir": ["out"]}, "output_dir"),
            ({"output_dir": str(taken)}, "^output_dir must be"),
            ({"output_dir": str(taken / "out")}, "^output_dir must be")):
        with pytest.raises(ParameterError, match=match):
            PipelineConfig.from_dict({"input": str(survey_csv), **overrides})
    # A config built directly is checked as one read from a file.
    for overrides, match in (
            ({"geo_metric": "nope", "seed": -4}, "geo_metric"),
            ({"seed": -4}, "seed"),
            ({"bdl_policy": "drop"}, "bdl_policy"),
            ({"input": str(tmp_path / "missing.csv")}, "input"),
            ({"log10_export": "no"}, "log10_export"),
            ({"cpf": {"min_samples": 5}}, "cpf")):
        with pytest.raises(ParameterError, match=match):
            PipelineConfig(**{"input": str(survey_csv), **overrides})
    with pytest.raises(ParameterError, match=r"cpf\.rho"):
        CpfParams(rho=2.0)


def test_geojson_single_point(tmp_path):
    path = tmp_path / "one.geojson"
    export_geojson({"site_ids": ["S1"], "labels": np.array([0]), "log_density": np.array([1.5])},
                   np.array([[53.5, -8.0]]), path)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    feat = doc["features"][0]
    assert feat["geometry"]["coordinates"] == [-8.0, 53.5]
    assert feat["properties"]["cluster"] == 0
    assert feat["properties"]["site_id"] == "S1"


def test_geojson_empty(tmp_path):
    path = tmp_path / "empty.geojson"
    export_geojson({"site_ids": [], "labels": np.array([]), "log_density": np.array([])},
                   np.empty((0, 2)), path)
    doc = json.loads(path.read_text())
    assert doc == {"type": "FeatureCollection", "features": []}


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_geojson_chunks_write_one_sorted_compact_document(tmp_path, monkeypatch, n):
    # Chunks of 3 features: the file must read as one json.dumps of the
    # whole document, whether n is a multiple of the chunk or not.
    monkeypatch.setattr(pipeline, "_ROWS", 3)
    rng = np.random.default_rng(n)
    scores = rng.uniform(size=n)
    scores[::2] = np.nan
    lab = {"site_ids": [f"S{i}" for i in range(n)], "labels": np.arange(n) % 3 - 1,
           "log_density": rng.normal(size=n), "anomaly_score": scores,
           "iforest_flag": rng.uniform(size=n) < 0.5}
    path = export_geojson(lab, rng.normal(size=(n, 2)), tmp_path / "c.geojson")
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True)
    assert [f["properties"]["site_id"] for f in doc["features"]] == [f"S{i}" for i in range(n)]


# Site ids: any text, and text built from the characters JSON escapes.
SITE_IDS = st.one_of(st.text(max_size=6), st.text(
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\r", "\n", "\t", "\u00e9",
                     "\u2028", "\U0001f600", "a", ","]), max_size=6))
# Floats: any, and the ones whose spelling differs between encoders.
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e16, 1e300,
                                                 float("nan"), float("inf"), -float("inf")]))


# SPATIALCPF_FUZZ_EXAMPLES sets the examples (CI runs 3000).
@settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "200")), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(0, 9), chunk=st.sampled_from([1, 2, 4, 1024]),
       refined=st.booleans())
def test_geojson_template_matches_json_dumps_oracle(tmp_path, data, n, chunk, refined):
    lab = {"site_ids": data.draw(st.lists(SITE_IDS, min_size=n, max_size=n)),
           "labels": np.array(data.draw(st.lists(st.integers(-1, 2**40), min_size=n,
                                                 max_size=n)), dtype=np.int64),
           "log_density": np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)))}
    coords = np.array(data.draw(st.lists(FLOATS, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    if refined:
        # Refine adds its scores and flags together.
        lab["anomaly_score"] = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)))
        lab["iforest_flag"] = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                          max_size=n)), dtype=bool)
    path = tmp_path / "c.geojson"
    with mock.patch.object(pipeline, "_ROWS", chunk):
        export_geojson(lab, coords, path)
    assert path.read_bytes() == oracle_geojson.geojson_text(
        lab["site_ids"], lab["labels"], coords, lab["log_density"], lab.get("anomaly_score"),
        lab.get("iforest_flag")).encode("ascii")


def test_geojson_full_run_outlier_count(tmp_path, survey_csv):
    config = PipelineConfig.from_file(make_config(tmp_path, survey_csv))
    report = run_pipeline(config)
    doc = json.loads(config.path(FILES["geojson"]).read_text())
    assert len(doc["features"]) == 400
    outliers = [f for f in doc["features"] if f["properties"]["cluster"] == -1]
    assert len(outliers) == report["n_outliers"]
    flagged = [f for f in doc["features"] if f["properties"]["iforest_flag"]]
    assert len(flagged) == report["n_flagged"]


def test_plot_data_row_count(tmp_path):
    ids, e, n, conc = surrogate_survey(n=40, seed=2)
    csv_path = tmp_path / "s.csv"
    write_survey_csv(csv_path, ids, e, n, conc)
    from spatialcpf.ingest import parse_g5_csv
    table = parse_g5_csv(csv_path)
    labels = ClusterLabeling(labels=np.array([0] * 20 + [1] * 20))
    summary = cluster_summary(table, labels)
    out = tmp_path / "plot.csv"
    export_plot_data(summary, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 15  # header + 2 clusters x 15 elements


def test_plot_data_iqr_zero_whiskers_equal_median(tmp_path):
    from spatialcpf.ingest import SampleTable
    table = SampleTable(site_ids=tuple(f"S{i}" for i in range(4)),
                        itm=np.tile([600000.0, 750000.0], (4, 1)),
                        concentrations=np.full((4, 15), 5.0))
    summary = cluster_summary(table, ClusterLabeling(labels=np.zeros(4, dtype=int)))
    s = summary_row(summary, 0, "Mn")
    assert s.iqr == 0.0
    assert s.whisker_low == s.whisker_high == s.median == 5.0


def test_cli_run_and_stage_chain(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_samples"] == 400

    # Individual stage via CLI against a fresh output dir.
    cfg2 = make_config(tmp_path, survey_csv, output_dir=str(tmp_path / "cli_out"))
    assert main(["ingest", "--config", str(cfg2)]) == 0
    assert (tmp_path / "cli_out" / "samples.csv").exists()


def test_cli_stages_round_trip_site_ids_that_need_quoting(tmp_path, capsys):
    # A quoted input cell may hold any character, so a site id may hold a
    # CR, LF, comma or quote. Every intermediate must quote it so the next
    # stage reads the same id back; csv.writer with LF line ends leaves a CR
    # bare, and a staged run then split the row in two.
    ids, easting, northing, conc = surrogate_survey(n=300, seed=3)
    for i, site in ((5, "S\r5"), (9, 'S"9'), (12, "S,12"), (20, "S\n20"), (30, "S\r\n30")):
        ids[i] = site
    csv_path = tmp_path / "survey.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["SITE_ID", "EASTING", "NORTHING", *ingest.ELEMENTS])
        writer.writerows([site, repr(e), repr(n), *map(repr, row)] for site, e, n, row in
                         zip(ids, easting.tolist(), northing.tolist(), conc.tolist()))
    whole = make_config(tmp_path, csv_path, output_dir=str(tmp_path / "whole"))
    assert main(["run", "--config", str(whole)]) == 0
    staged = make_config(tmp_path, csv_path, output_dir=str(tmp_path / "staged"))
    for stage in pipeline.STAGES:
        assert main([stage, "--config", str(staged)]) == 0, capsys.readouterr().err
    assert ingest.parse_g5_csv(tmp_path / "staged" / FILES["samples"]).site_ids == tuple(ids)
    for name in FILES.values():
        if name != "report.json":
            assert ((tmp_path / "whole" / name).read_bytes()
                    == (tmp_path / "staged" / name).read_bytes()), name


def test_cli_out_of_range_itm_coordinate_names_file_and_line(tmp_path, capsys):
    site_ids, easting, northing, conc = surrogate_survey(n=40, seed=0)
    easting[5] = 2_000_000.0
    csv_path = tmp_path / "survey.csv"
    write_survey_csv(csv_path, site_ids, easting, northing, conc)
    cfg_path = make_config(tmp_path, csv_path)
    for command in ("ingest", "run"):
        assert main([command, "--config", str(cfg_path)]) == 1, command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"{csv_path}: line 7: ITM coordinate out of range: easting=2000000.0" in err, err
    assert not (tmp_path / "out" / FILES["samples"]).exists()


def test_cli_ingest_cell_over_csv_field_limit_names_file_and_line(tmp_path, capsys):
    site_ids, easting, northing, conc = surrogate_survey(n=40, seed=0)
    site_ids[1] = "S" * (csv.field_size_limit() + 10)
    csv_path = tmp_path / "survey.csv"
    write_survey_csv(csv_path, site_ids, easting, northing, conc)
    assert main(["ingest", "--config", str(make_config(tmp_path, csv_path))]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert f"error: {csv_path}: line 3: field larger than field limit" in err, err
    assert not (tmp_path / "out" / FILES["samples"]).exists()


def test_cli_stage_labeling_cell_over_csv_field_limit_names_file_and_line(tmp_path, survey_csv,
                                                                          capsys):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / FILES["labeling"]).read_text().splitlines(keepends=True)
    bad = tmp_path / "labeling.csv"
    bad.write_text(lines[0] + lines[1] + "S" * (csv.field_size_limit() + 10) + lines[2]
                   + "".join(lines[3:]))
    assert main(["summarize", "--config", str(cfg_path), "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert f"error: {bad}: line 3: field larger than field limit" in err, err


def test_read_labeling_names_first_row_out_of_range(tmp_path):
    path = tmp_path / "labeling.csv"
    path.write_text("site_id,cluster_label,log_density,omega,component_id\n"
                    + "".join(f"S{i},{label},0.0,1.0,{comp}\n" for i, (label, comp) in
                              enumerate([(0, 0), (-1, 9), (5, 0), (-2, 0), (0, 0)])))
    with pytest.raises(DataError, match=r": row 3: cluster_label 5 is outside \[-1, 5\)$"):
        pipeline.read_labeling(path)
    path.write_text(path.read_text().replace("S2,5,", "S2,4,").replace("S3,-2,", "S3,-1,"))
    with pytest.raises(DataError, match=r": row 2: component_id 9 is outside \[0, 5\)$"):
        pipeline.read_labeling(path)


def test_cli_error_exit_code(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv, cpf={"min_samples": 400})
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "stage" in capsys.readouterr().err


def test_cli_overflowing_feature_spread_exits_1_with_one_line(tmp_path, capsys):
    # Finite concentrations whose squared differences overflow: unscaled,
    # the kNN distances from the one huge site are infinite.
    ids, easting, northing, conc = surrogate_survey(n=400, seed=7)
    conc[17, 3] = 1e160
    survey_csv = tmp_path / "survey.csv"
    write_survey_csv(survey_csv, ids, easting, northing, conc)
    cfg_path = make_config(tmp_path, survey_csv, scaling="none")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error in stage cluster: coordinates spread too widely: their squared distances "
        "overflow\n")
    assert not (tmp_path / "out" / FILES["labeling"]).exists()


def test_cli_overflowing_column_exits_1_naming_it(tmp_path, capsys):
    # Finite concentrations whose squared deviations overflow: As's
    # standard deviation is infinite.
    ids, easting, northing, conc = surrogate_survey(n=400, seed=0)
    conc[:, 0] *= 1e202 / conc[:, 0].max()
    survey_csv = tmp_path / "survey.csv"
    write_survey_csv(survey_csv, ids, easting, northing, conc)
    assert main(["run", "--config", str(make_config(tmp_path, survey_csv))]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "column(s): As\n" in err, err
    assert not (tmp_path / "out" / FILES["labeling"]).exists()


def test_cli_rejects_negative_seed_before_any_stage(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "seed" in err
    assert not (tmp_path / "out" / FILES["samples"]).exists()


def test_cli_config_errors_exit_1_with_one_line(tmp_path, survey_csv, capsys):
    def assert_one_line_error(path):
        assert main(["run", "--config", str(path)]) == 1, path
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("input: [unclosed\n  seed: 0\n")
    assert_one_line_error(bad_yaml)
    no_input = tmp_path / "no_input.yaml"
    no_input.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    assert_one_line_error(no_input)
    mixed_keys = tmp_path / "mixed_keys.yaml"
    mixed_keys.write_text(f"input: {survey_csv}\n5: 1\nbogus: 2\n")
    assert_one_line_error(mixed_keys)
    for overrides in ({"cpf": {"min_samples": "abc"}},
                      {"iforest": {"n_trees": "5"}},
                      {"log10_export": "no"},
                      {"calinski_harabasz": {"include_outliers": "no"}},
                      {"cpf": {5: 1, "bogus": 2}},
                      {"bdl_policy": "a\nb"},
                      {"geo_metric": "a\u2028b"},
                      {"input": "no\nfile"}):
        assert_one_line_error(make_config(tmp_path, survey_csv, **overrides))
    assert not (tmp_path / "out").exists()


def test_cli_seed_override(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv)
    config = PipelineConfig.from_file(cfg_path)
    config.seed = 3
    report = run_pipeline(config)
    assert report["seed"] == 3


def test_cli_export_out_writes_geojson_there(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out_dir = tmp_path / "out"
    want = (out_dir / FILES["geojson"]).read_bytes()
    (out_dir / FILES["geojson"]).unlink()
    (out_dir / FILES["plot_data"]).unlink()
    target = tmp_path / "elsewhere.geojson"
    assert main(["export", "--config", str(cfg_path), "--out", str(target)]) == 0
    assert target.read_bytes() == want
    assert not (out_dir / FILES["geojson"]).exists()
    assert (out_dir / FILES["plot_data"]).exists()


def test_cli_graph_in_is_samples_table_under_euclidean_itm(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv, geo_metric="euclidean_itm")
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    assert main(["graph", "--config", str(cfg_path)]) == 0
    out_dir = tmp_path / "out"
    want = (out_dir / FILES["adjacency"]).read_bytes()
    capsys.readouterr()

    missing = tmp_path / "no_such_file.csv"
    assert main(["graph", "--config", str(cfg_path), "--in", str(missing),
                 "--out", str(tmp_path / "never.bin")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "no_such_file.csv" in err, err
    assert not (tmp_path / "never.bin").exists()

    copy = tmp_path / "copy.csv"
    copy.write_bytes((out_dir / FILES["samples"]).read_bytes())
    (out_dir / FILES["samples"]).unlink()
    target = tmp_path / "copy.bin"
    assert main(["graph", "--config", str(cfg_path), "--in", str(copy),
                 "--out", str(target)]) == 0
    assert target.read_bytes() == want


def test_cli_malformed_intermediates_exit_1_with_one_line(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    lines = (out_dir / FILES["labeling"]).read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")

    def written(name, row, header_line=lines[0], encoding="utf-8"):
        path = tmp_path / name
        path.write_bytes((header_line + lines[1] + row + "".join(lines[3:])).encode(encoding))
        return path

    def cell_replaced(column, value):
        cells = lines[2].rstrip("\n").split(",")
        cells[header.index(column)] = value
        return ",".join(cells) + "\n"

    cases = [
        (written("oops.csv", cell_replaced("cluster_label", "oops")), "line 3"),
        (written("flag.csv", cell_replaced("iforest_flag", "maybe")), "line 3"),
        (written("short.csv", lines[2].split(",", 1)[0] + ",0\n"), "line 3"),
        (written("nocol.csv", lines[2],
                 header_line=lines[0].replace("cluster_label", "label")),
         "missing column cluster_label"),
        (written("latin1.csv", cell_replaced("site_id", "\u00e9"), encoding="latin-1"),
         "not UTF-8"),
        # Out of range for 400 rows: three million would ask for as many
        # cluster groups, twenty nines for an integer numpy cannot hold, and
        # no stage writes a label below -1.
        (written("huge.csv", cell_replaced("cluster_label", "3000000")),
         "row 2: cluster_label 3000000 is outside [-1, 400)"),
        (written("wide.csv", cell_replaced("component_id", "9" * 20)), "row 2: component_id"),
        (written("minus.csv", cell_replaced("cluster_label", "-7")), "row 2: cluster_label -7"),
        (written("nan.csv", cell_replaced("log_density", "nan")), "line 3"),
        # Exported as is, an infinite score would make the GeoJSON invalid JSON.
        (written("inf.csv", cell_replaced("anomaly_score", "inf")),
         "line 3: bad anomaly_score value 'inf'"),
    ]
    for path, where in cases:
        for stage in ("refine", "summarize", "export"):
            assert main([stage, "--config", str(cfg_path), "--in", str(path)]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert path.name in err and where in err, err

    coords = tmp_path / "coords.csv"
    text = (out_dir / FILES["coords"]).read_text().splitlines(keepends=True)
    coords.write_text(text[0] + "S0,north,1.0\n" + "".join(text[2:]))
    assert main(["graph", "--config", str(cfg_path), "--in", str(coords)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "coords.csv: line 2" in err, err

    # Exported as is, a NaN latitude would make the GeoJSON invalid JSON.
    cells = text[2].split(",")
    cells[1] = "nan"
    (out_dir / FILES["coords"]).write_text(text[0] + text[1] + ",".join(cells) + "".join(text[3:]))
    assert main(["export", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "coords.csv: line 3: bad latitude" in err, err


def test_cli_coordinates_off_the_globe_exit_1_naming_the_cell(tmp_path, survey_csv, capsys):
    # A latitude beyond 90 or a longitude beyond 180 degrees is no place:
    # neither export (into the GeoJSON) nor graph may take it.
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    coords = tmp_path / "out" / FILES["coords"]
    lines = coords.read_text().splitlines(keepends=True)
    site, latitude, _ = lines[2].split(",")
    for cells, where in (((site, "91.5", "-400"), "line 3: bad latitude value '91.5'"),
                         ((site, latitude, "-400"), "line 3: bad longitude value '-400'"),
                         ((site, "-90.5", "0.0"), "line 3: bad latitude value '-90.5'")):
        coords.write_text(lines[0] + lines[1] + ",".join(cells) + "\n" + "".join(lines[3:]))
        for stage in ("export", "graph"):
            capsys.readouterr()
            assert main([stage, "--config", str(cfg_path)]) == 1, stage
            err = capsys.readouterr().err
            assert err == f"error: {coords}: {where}\n", err


def test_cli_refine_rejects_nan_or_negative_omega(tmp_path, survey_csv, capsys):
    # refine used to take a NaN omega and write it back as an empty cell,
    # which summarize then rejected in the file refine itself wrote. +inf
    # marks a component's peak and stays valid.
    cfg_path = make_config(tmp_path, survey_csv)
    for stage in ("ingest", "project", "graph", "cluster"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    labeling = tmp_path / "out" / FILES["labeling"]
    valid = labeling.read_text()
    lines = valid.splitlines(keepends=True)
    column = lines[0].rstrip("\n").split(",").index("omega")
    assert "inf" in [line.rstrip("\n").split(",")[column] for line in lines[1:]]
    for value in ("nan", "-1.0", "-inf"):
        cells = lines[2].rstrip("\n").split(",")
        cells[column] = value
        labeling.write_text(lines[0] + lines[1] + ",".join(cells) + "\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path)]) == 1, value
        err = capsys.readouterr().err
        assert err == f"error: {labeling}: line 3: bad omega value '{value}'\n", err
    labeling.write_text(valid)
    for stage in ("refine", "summarize", "export"):
        assert main([stage, "--config", str(cfg_path)]) == 0


def _head(path, lines):
    return b"".join(path.read_bytes().splitlines(keepends=True)[:lines])


def _rows_swapped(path):
    header, first, second, *rest = path.read_bytes().splitlines(keepends=True)
    return b"".join([header, second, first, *rest])


# Each case replaces one artifact of a finished 400-site run (out) with a file
# made from it or from another run over 450 sites whose first 400 site ids
# are the same (other); the stage that reads it back must name both files.
@pytest.mark.parametrize("stage, key, replacement, where", [
    ("export", "coords", lambda out, other: _head(out / FILES["coords"], 100), "has 99 sites"),
    ("export", "coords", lambda out, other: (other / FILES["coords"]).read_bytes(),
     "has 450 sites"),
    ("export", "coords", lambda out, other: _rows_swapped(out / FILES["coords"]),
     "row 1 is site 'S00001'"),
    ("summarize", "labeling", lambda out, other: _head(out / FILES["labeling"], 400),
     "has 399 sites"),
    ("cluster", "adjacency", lambda out, other: (other / FILES["adjacency"]).read_bytes(),
     "has 450 sites"),
], ids=["export_99_row_coords", "export_other_run_coords", "export_reordered_coords",
        "summarize_truncated_labeling", "cluster_other_run_graph"])
def test_cli_artifact_not_matching_samples_names_both_files(tmp_path, survey_csv, capsys,
                                                            stage, key, replacement, where):
    cfg_path = make_config(tmp_path, survey_csv)
    assert main(["run", "--config", str(cfg_path)]) == 0
    (tmp_path / "other").mkdir()
    other_csv = tmp_path / "other" / "survey.csv"
    write_survey_csv(other_csv, *surrogate_survey(n=450, seed=7))
    other_cfg = make_config(tmp_path / "other", other_csv)
    for name in ("ingest", "project", "graph"):
        assert main([name, "--config", str(other_cfg)]) == 0
    out = tmp_path / "out"
    (out / FILES[key]).write_bytes(replacement(out, tmp_path / "other" / "out"))
    capsys.readouterr()

    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert str(out / FILES[key]) in err and str(out / FILES["samples"]) in err, err
    assert where in err, err


# Each stage's main input, and the file it writes (--out), by FILES key.
STAGE_IN_OUT = {
    "ingest": (None, "samples"),
    "project": ("samples", "coords"),
    "graph": ("coords", "adjacency"),
    "cluster": ("samples", "labeling"),
    "refine": ("labeling", "labeling"),
    "summarize": ("labeling", "summary"),
    "export": ("labeling", "geojson"),
}


@pytest.mark.parametrize("stage", list(STAGE_IN_OUT))
def test_cli_stage_honours_in_and_out(tmp_path, survey_csv, stage):
    cfg_path = make_config(tmp_path, survey_csv)
    out_dir = tmp_path / "out"
    names = list(STAGE_IN_OUT)
    for name in names[:names.index(stage)]:
        assert main([name, "--config", str(cfg_path)]) == 0
    in_key, out_key = STAGE_IN_OUT[stage]
    original = survey_csv if in_key is None else out_dir / FILES[in_key]
    copy = tmp_path / "moved" / original.name
    copy.parent.mkdir()
    shutil.copyfile(original, copy)
    assert main([stage, "--config", str(cfg_path)]) == 0
    default_out = out_dir / FILES[out_key]
    want = default_out.read_bytes()
    default_out.unlink(missing_ok=True)
    if in_key is None:
        original.write_text("")  # the config's input must exist; an empty one fails to parse
    else:
        original.unlink(missing_ok=True)

    target = tmp_path / f"new_{FILES[out_key]}"
    assert main([stage, "--config", str(cfg_path), "--in", str(copy),
                 "--out", str(target)]) == 0
    assert target.read_bytes() == want
    assert not default_out.exists()


def test_cli_refine_in_without_out_rewrites_its_input(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv)
    for name in ("ingest", "project", "graph", "cluster"):
        assert main([name, "--config", str(cfg_path)]) == 0
    labeling = tmp_path / "out" / FILES["labeling"]
    clustered = labeling.read_bytes()
    copy = tmp_path / "x.csv"
    copy.write_bytes(clustered)
    assert main(["refine", "--config", str(cfg_path), "--in", str(copy)]) == 0
    assert labeling.read_bytes() == clustered
    assert main(["refine", "--config", str(cfg_path)]) == 0
    assert copy.read_bytes() == labeling.read_bytes() != clustered


def run_cli_on_default_config(tmp_path, survey_csv, capsys, **cpf):
    """spatialcpf run on the config defaults, cpf keys overridden; returns
    the printed report and stderr."""
    cfg_path = tmp_path / "defaults.yaml"
    cfg_path.write_text(yaml.safe_dump({"input": str(survey_csv),
                                        "output_dir": str(tmp_path / "out"), "cpf": cpf}))
    assert main(["run", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def test_degenerate_result_warns(tmp_path, survey_csv, capsys):
    # Components below 100 samples are stranded as outliers: 295 of 400.
    report, err = run_cli_on_default_config(tmp_path, survey_csv, capsys,
                                            min_component_size=100)
    assert report["n_outliers"] > pipeline.DEGENERATE_OUTLIER_FRACTION * 400
    percent = f"{report['n_outliers'] / 400:.0%}"
    assert len(report["warnings"]) == 1 and percent in report["warnings"][0]
    # The warning names the cause: the outliers stranded by component size,
    # and how thin the intersected graph is.
    assert report["n_stranded"] == report["n_outliers"]
    median = report["intersected_degree_quartiles"][1]
    assert report["warnings"][0].endswith(
        f"; {report['n_stranded']} of them lie in components smaller than "
        f"min_component_size (100), and the median intersected degree is {median:g}")
    assert 0 < report["n_isolated"] < report["n_stranded"]
    assert 0 < report["geo_edges_kept_fraction"] < 1
    assert err == f"warning: {report['warnings'][0]}\n"
    written = json.loads((tmp_path / "out" / FILES["report"]).read_text())
    assert written["warnings"] == report["warnings"]


def test_normal_result_does_not_warn(tmp_path, survey_csv, capsys):
    report, err = run_cli_on_default_config(tmp_path, survey_csv, capsys)
    assert 0 < report["n_outliers"] <= pipeline.DEGENERATE_OUTLIER_FRACTION * 400
    assert report["warnings"] == [] and err == ""


def make_duplicate_rows_config(tmp_path):
    """A config whose input has 21 sites with one concentration vector: with
    min_samples 20 each has k-th-neighbor radius 0, and knn_density warns."""
    ids, easting, northing, conc = surrogate_survey(n=400, seed=7)
    conc[:21] = conc[0]
    survey_csv = tmp_path / "survey.csv"
    write_survey_csv(survey_csv, ids, easting, northing, conc)
    return make_config(tmp_path, survey_csv)


def test_run_records_raised_warnings(tmp_path, capsys):
    cfg_path = make_duplicate_rows_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    duplicate = [w for w in report["warnings"] if "duplicate-point kNN radius 0" in w]
    assert len(duplicate) == 1 and duplicate[0].startswith("21 sample(s)")
    assert captured.err.splitlines() == [f"warning: {w}" for w in report["warnings"]]
    written = json.loads((tmp_path / "out" / FILES["report"]).read_text())
    assert written["warnings"] == report["warnings"]


def test_cli_stage_prints_raised_warnings(tmp_path, capsys):
    cfg_path = make_duplicate_rows_config(tmp_path)
    for stage in ("ingest", "project", "graph"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: 21 sample(s) have duplicate-point kNN")


def test_run_stage_issues_raised_warnings_again(tmp_path):
    config = PipelineConfig.from_file(make_duplicate_rows_config(tmp_path))
    for stage in ("ingest", "project", "graph"):
        pipeline.run_stage(stage, config)
    with pytest.warns(UserWarning, match="duplicate-point kNN radius 0") as raised:
        pipeline.stage_cluster(config)
    assert len(raised) == 1
