"""The staged-file readers against their cell-by-cell oracle.

pipeline.read_labeling and pipeline._read_coords read by columns,
fileio.CHUNK_ROWS rows at a time, and read a faulty file again one row at a
time. On valid files they must return what tests/oracle_staged.py returns,
bit for bit; on faulty ones they must raise its error class and message.
What pipeline.write_labeling writes, pipeline._ROWS rows at a time,
read_labeling must read back bit for bit.
"""

import csv
import io
import math
import os
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_staged
from spatialcpf import fileio, pipeline
from spatialcpf.errors import DataError, SpatialCpfError

COLUMNS = {
    "labeling": ("site_id", "cluster_label", "log_density", "omega", "component_id",
                 "anomaly_score", "iforest_flag"),
    "coords": ("site_id", "latitude", "longitude"),
}

# Each format's reader and its oracle.
READERS = {
    "labeling": (pipeline.read_labeling, oracle_staged.read_labeling),
    "coords": (pipeline._read_coords, oracle_staged.read_coords),
}
# The keys read_labeling gives a labeling's columns, in file order.
LABELING_KEYS = ("site_ids", "labels", "log_density", "omega", "component_id",
                 "anomaly_score", "iforest_flag")


def floats(low=-1e6, high=1e6):
    return st.floats(low, high).map(repr)


def ints(low, high):
    """An integer's text in one of the forms int() reads."""
    return st.tuples(st.integers(low, high), st.sampled_from(["{}", " {} ", "+{}"])).map(
        lambda pair: pair[1].format(pair[0]) if pair[0] >= 0 else str(pair[0]))


def valid_cell(column, n):
    return {
        "site_id": st.text(st.sampled_from("Sa1 ,\"'\r\né"), max_size=6),
        "cluster_label": ints(-1, n - 1),
        "component_id": ints(0, n - 1),
        "log_density": floats(),
        "omega": st.one_of(floats(0.0), st.just("inf")),
        "anomaly_score": st.one_of(st.just(""), floats()),
        "iforest_flag": st.sampled_from(["True", "False"]),
        "latitude": floats(-90.0, 90.0),
        "longitude": floats(-180.0, 180.0),
    }[column]


@st.composite
def staged_tables(draw, kind):
    """A valid staged file's rows: its columns, extra columns and a repeated
    name (read from its last column) in a drawn order, then data rows, some
    longer than the header and some short of trailing extra columns."""
    needed = COLUMNS[kind]
    extra = [f"note{i}" for i in range(draw(st.integers(0, 2)))]
    repeated = draw(st.lists(st.sampled_from(needed + ("note0",)), max_size=1))
    names = list(needed) + extra + repeated
    header = [names[i] for i in draw(st.permutations(range(len(names))))]
    last = {name: i for i, name in enumerate(header)}
    reach = max(last[name] for name in needed) + 1
    n = draw(st.integers(1, 10))
    rows = [header]
    for _ in range(n):
        row = [draw(valid_cell(name, n)) if name in needed and last[name] == i
               else draw(st.sampled_from(["", "x", "nan"])) for i, name in enumerate(header)]
        row += ["y"] * draw(st.integers(0, 2))
        rows.append(row[:draw(st.integers(reach, len(row)))])
    return rows


# Empty lines written after a row, mostly none.
BLANK_LINES = (0, 0, 0, 0, 1, 2)


def write_text(rows, draw_blank, quote_all):
    """CSV text of rows, with drawn empty lines between them. A cell holding
    a CR is quoted only when the line ends hold one, or when every cell is."""
    out = io.StringIO()
    ending = "\n" if quote_all else "\r\n"
    writer = csv.writer(out, lineterminator=ending,
                        quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    for row in rows:
        writer.writerow(row)
        out.write(ending * draw_blank())
    return out.getvalue()


# A fault and the cells that carry it, by column; short cuts a row short.
FAULTS = {
    "bad": {"cluster_label": "1.5", "component_id": "x", "log_density": "x", "omega": "1.0x",
            "anomaly_score": "x", "iforest_flag": "maybe", "latitude": "north",
            "longitude": "x"},
    "empty": {"cluster_label": "", "component_id": " ", "log_density": "", "omega": "",
              "iforest_flag": "", "latitude": "", "longitude": " "},
    "non_finite": {"log_density": "inf", "omega": "nan", "anomaly_score": "nan",
                   "latitude": "nan", "longitude": "-inf"},
    "out_of_range": {"cluster_label": "-2", "component_id": "-1", "omega": "-1.0",
                     "latitude": "91.5", "longitude": "-400"},
    "short": {},
}


def inject(rows, fault, r, j):
    """rows with the fault at data row r, in the j-th column it applies to."""
    header, data = rows[0], [list(row) for row in rows[1:]]
    row = data[r % len(data)]
    last = {name: i for i, name in enumerate(header)}
    if fault == "short":
        del row[sorted(last.values())[j % len(last)]:]
        return [header] + data
    columns = [name for name in FAULTS[fault] if name in last and last[name] < len(row)]
    if columns:
        column = columns[j % len(columns)]
        row[last[column]] = FAULTS[fault][column]
    return [header] + data


def outcome(read, path):
    """A reader's result as exact bytes, or its error's class and message."""
    try:
        result = read(path)
    except SpatialCpfError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # coords: the (n, 2) array and the site ids
        result = {"coords": result[0], "site_ids": result[1]}
    return {key: list(value) if key == "site_ids" else
            (value.dtype.str, value.shape, value.tobytes()) for key, value in result.items()}


# SPATIALCPF_FUZZ_EXAMPLES sets the examples of the two oracle tests and
# the round trip (CI runs 3000).
STAGED = settings(max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "80")),
                  deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@STAGED
@given(data=st.data(), kind=st.sampled_from(list(COLUMNS)),
       chunk_rows=st.sampled_from([1, 2, 3, fileio.CHUNK_ROWS]), quote_all=st.booleans())
def test_columns_equal_oracle_on_valid_files(tmp_path, data, kind, chunk_rows, quote_all):
    rows = data.draw(staged_tables(kind))
    path = tmp_path / "valid.csv"
    path.write_text(write_text(rows, lambda: data.draw(st.sampled_from(BLANK_LINES)), quote_all),
                    encoding="utf-8", newline="")
    read, oracle = READERS[kind]
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        got = outcome(read, path)
    assert got == outcome(oracle, path)
    assert isinstance(got, dict), got
    if kind == "labeling":
        assert tuple(got) == LABELING_KEYS


@STAGED
@given(data=st.data(), kind=st.sampled_from(list(COLUMNS)),
       chunk_rows=st.sampled_from([1, 2, 3, fileio.CHUNK_ROWS]), quote_all=st.booleans(),
       faults=st.lists(st.tuples(st.sampled_from(list(FAULTS)), st.integers(0, 9),
                                 st.integers(0, 9)), min_size=1, max_size=2))
def test_columns_raise_as_oracle_on_faulty_files(tmp_path, data, kind, chunk_rows, quote_all,
                                                 faults):
    rows = data.draw(staged_tables(kind))
    for fault, r, j in faults:
        rows = inject(rows, fault, r, j)
    path = tmp_path / "faulty.csv"
    path.write_text(write_text(rows, lambda: data.draw(st.sampled_from(BLANK_LINES)), quote_all),
                    encoding="utf-8", newline="")
    read, oracle = READERS[kind]
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        got = outcome(read, path)
    assert got == outcome(oracle, path)
    # Every fault but a short row (whose missing cells may be valid when
    # empty) breaks the file.
    if all(fault != "short" for fault, _, _ in faults):
        assert isinstance(got, tuple), got


def test_short_row_reads_missing_cells_as_empty(tmp_path):
    # A short row's scores read as "" (NaN), as DictReader's restval does;
    # its missing flag is a bad cell on its own line.
    path = tmp_path / "labeling.csv"
    header = "site_id,cluster_label,log_density,omega,component_id,anomaly_score,iforest_flag\n"
    path.write_text(header + "S0,0,0.5,inf,0,,False\n\nS1,0,0.5,1.0,0\n")
    for chunk_rows in (1, fileio.CHUNK_ROWS):
        with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
            assert outcome(pipeline.read_labeling, path) == (
                DataError, f"{path}: line 4: bad iforest_flag value ''")


def labeling_rows(n):
    """One row of an n-row labeling, in LABELING_KEYS order."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.tuples(st.text(st.sampled_from("Sa1 ,\"'\r\né"), max_size=6),
                     st.integers(-1, n - 1), finite,
                     st.one_of(st.floats(0.0, allow_nan=False), st.just(math.inf)),
                     st.integers(0, n - 1), st.one_of(st.just(math.nan), finite),
                     st.booleans())


@STAGED
@given(data=st.data(), rows=st.sampled_from([1, 2, 3, 1024]))
def test_labeling_round_trips_at_any_write_chunk(tmp_path, data, rows):
    # Row counts on both sides of each chunk size; the drawn rows repeat.
    n = data.draw(st.one_of(st.integers(1, 7), st.sampled_from([1023, 1024, 1025])))
    drawn = data.draw(st.lists(labeling_rows(n), min_size=1, max_size=6))
    columns = zip(*(drawn[i % len(drawn)] for i in range(n)))
    lab = {key: list(column) if key == "site_ids" else np.array(column)
           for key, column in zip(LABELING_KEYS, columns)}
    path = tmp_path / "labeling.csv"
    with mock.patch.object(pipeline, "_ROWS", rows):
        pipeline.write_labeling(lab, path)
    assert outcome(pipeline.read_labeling, path) == outcome(lambda _: lab, path)
