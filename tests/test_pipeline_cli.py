import json

import numpy as np
import pytest
import yaml

from conftest import surrogate_survey, write_survey_csv
from spatialcpf import pipeline
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


def test_staged_run_matches_run_pipeline(tmp_path, survey_csv):
    whole = PipelineConfig.from_file(make_config(tmp_path, survey_csv,
                                                 output_dir=str(tmp_path / "whole")))
    run_pipeline(whole)

    staged = PipelineConfig.from_file(make_config(tmp_path, survey_csv,
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
    from spatialcpf.ingest import RawRecord, SampleTable
    conc = {e: 5.0 for e in __import__("spatialcpf.ingest", fromlist=["ELEMENTS"]).ELEMENTS}
    records = tuple(RawRecord(f"S{i}", 600000.0, 750000.0, dict(conc)) for i in range(4))
    table = SampleTable(records=records)
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


def test_cli_seed_override(tmp_path, survey_csv):
    cfg_path = make_config(tmp_path, survey_csv)
    config = PipelineConfig.from_file(cfg_path)
    config.seed = 3
    report = run_pipeline(config)
    assert report["seed"] == 3
