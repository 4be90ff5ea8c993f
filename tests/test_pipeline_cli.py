import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import surrogate_survey, write_survey_csv
from spatialcpf import graph, ingest, pipeline
from spatialcpf.cli import main
from spatialcpf.cpf import ClusterLabeling
from spatialcpf.errors import ParameterError
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
    assert list(report["fit_seconds"]) == ["knn", "mutual", "intersect", "components", "density",
                                           "big_brother", "centers", "assign", "merge"]
    assert all(t >= 0 for t in report["fit_seconds"].values())
    assert sum(report["fit_seconds"].values()) <= report["stage_seconds"]["cluster"]
    assert report["peak_rss_mib"] > 0
    assert json.loads(config.path(FILES["report"]).read_text()) == report


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

    def failing_write(path, header, rows):
        def failing_rows():
            for i, row in enumerate(rows):
                if i == 150:
                    raise OSError("disk full")
                yield row
        return write(path, header, failing_rows())
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


def test_config_validation_errors(tmp_path, survey_csv):
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
            ({"log10_export": "no"}, "log10_export"),
            ({"log10_export": 0}, "log10_export"),
            ({"calinski_harabasz": {"include_outliers": "no"}}, "include_outliers"),
            ({"input": 5}, "input"),
            ({"output_dir": ["out"]}, "output_dir")):
        with pytest.raises(ParameterError, match=match):
            PipelineConfig.from_dict({"input": str(survey_csv), **overrides})


def test_geojson_single_point(tmp_path):
    path = tmp_path / "one.geojson"
    export_geojson(["S1"], np.array([0]), np.array([[53.5, -8.0]]),
                   np.array([1.5]), path)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    feat = doc["features"][0]
    assert feat["geometry"]["coordinates"] == [-8.0, 53.5]
    assert feat["properties"]["cluster"] == 0
    assert feat["properties"]["site_id"] == "S1"


def test_geojson_empty(tmp_path):
    path = tmp_path / "empty.geojson"
    export_geojson([], np.array([]), np.empty((0, 2)), np.array([]), path)
    doc = json.loads(path.read_text())
    assert doc == {"type": "FeatureCollection", "features": []}


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
    s = summary.stats[(0, "Mn")]
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


def test_cli_error_exit_code(tmp_path, survey_csv, capsys):
    cfg_path = make_config(tmp_path, survey_csv, cpf={"min_samples": 400})
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "stage" in capsys.readouterr().err


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
    ]
    for path, where in cases:
        for stage in ("refine", "summarize"):
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
