"""Fuzz the CLI with mutated input files.

A small valid survey CSV, config YAML, geo_adjacency.bin, coords.csv and
labeling.csv are mutated by byte flips, deletions, insertions and
truncation, then read by a stage that reads them. Each command must exit 0,
or exit 1 with exactly one line on stderr; any other exception escaping the
CLI fails the test.
"""

import os

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import surrogate_survey, write_survey_csv
from spatialcpf.cli import main

# Bytes that carry structure in CSV, YAML or numbers, inserted besides
# arbitrary ones.
TOKENS = (b",", b"\n", b"\r", b'"', b"<", b"-", b".", b":", b" ", b"{", b"[",
          b"'", b"\\", b"\x00", b"nan", b"inf", b"1e999", b"\xc3\xa9", b"\xff")


@st.composite
def mutations(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "delete", "insert", "truncate")))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data = data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
        elif kind == "delete":
            data = data[:pos] + data[pos + draw(st.integers(1, 16)):]
        elif kind == "insert":
            chunk = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=8)))
            data = data[:pos] + chunk + data[pos:]
        elif kind == "truncate":
            data = data[:pos]
    return data


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A valid survey, config, coordinates, graph and labeling under
    tmp_path, the working directory."""
    monkeypatch.chdir(tmp_path)
    write_survey_csv("survey.csv", *surrogate_survey(n=40, seed=3))
    config = {"input": "survey.csv", "output_dir": "out", "cpf": {"min_samples": 5},
              "iforest": {"n_trees": 10, "subsample_size": 16}}
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(config))
    for stage in ("ingest", "project", "graph", "cluster"):
        assert main([stage, "--config", "c.yaml"]) == 0
    return tmp_path


def assert_exit_0_or_one_line(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    if code != 0:
        assert code == 1 and err.startswith("error") and len(err.splitlines()) == 1, err


# SPATIALCPF_FUZZ_EXAMPLES sets the examples per input file (CI runs 3000).
FUZZ = settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "120")),
                deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name, argv", [
    ("fuzz.csv", ["ingest", "--config", "c.yaml", "--in", "fuzz.csv", "--out", "fuzz_out.csv"]),
    ("fuzz.yaml", ["ingest", "--config", "fuzz.yaml", "--out", "fuzz_out.csv"]),
    ("out/geo_adjacency.bin", ["cluster", "--config", "c.yaml", "--out", "fuzz_out.csv"]),
    ("out/coords.csv", ["export", "--config", "c.yaml", "--out", "fuzz_out.geojson"]),
    ("out/labeling.csv", ["summarize", "--config", "c.yaml", "--out", "fuzz_out.csv"]),
], ids=["csv", "yaml", "sadj", "coords", "labeling"])
def test_mutated_input_exits_cleanly(workdir, capsys, name, argv):
    source = {"fuzz.csv": "survey.csv", "fuzz.yaml": "c.yaml"}.get(name, name)
    valid = (workdir / source).read_bytes()

    @FUZZ
    @given(mutations(valid))
    def run(data):
        (workdir / name).write_bytes(data)
        assert_exit_0_or_one_line(capsys, argv)

    run()
