import csv
import os
import re
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle_ingest
import oracle_samples
from conftest import surrogate_survey, write_survey_csv
from spatialcpf import fileio, ingest, pipeline
from spatialcpf.errors import (DataError, DegenerateColumnError, RowParseError,
                               SchemaError, SpatialCpfError)
from spatialcpf.ingest import ELEMENTS, parse_g5_csv, standardize


def write_rows(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


HEADER = ["SITE_ID", "EASTING", "NORTHING", *ELEMENTS]


def sample_row(site="A1", sb="0.5"):
    conc = ["1.0"] * len(ELEMENTS)
    conc[ELEMENTS.index("Sb")] = sb
    return [site, "600000", "750000", *conc]


def test_parse_basic_order_preserved(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row("A1"), sample_row("B2"), sample_row("C3")])
    table = parse_g5_csv(path)
    assert table.site_ids == ("A1", "B2", "C3")
    assert table.n == 3


def test_parse_bdl_half_dl(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row(sb="<0.5")])
    table = parse_g5_csv(path, bdl_policy="half_dl")
    assert table.concentrations[0, ELEMENTS.index("Sb")] == pytest.approx(0.25)


def test_parse_bdl_reject(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row(sb="<0.5")])
    with pytest.raises(RowParseError, match="line 2"):
        parse_g5_csv(path, bdl_policy="reject")


def test_parse_non_numeric_has_line_number(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row(), sample_row("B2", sb="oops")])
    with pytest.raises(RowParseError, match="line 3"):
        parse_g5_csv(path, bdl_policy="reject")


def test_parse_short_row_has_line_number(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row("A1"), sample_row("B2"), sample_row("C3")[:-1]])
    with pytest.raises(RowParseError, match="line 4"):
        parse_g5_csv(path)


def test_parse_non_utf8_names_file(tmp_path):
    path = tmp_path / "latin1.csv"
    text = "\n".join([",".join(HEADER), ",".join(sample_row("caf\xe9"))]) + "\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SchemaError, match="latin1.csv"):
        parse_g5_csv(path)


def test_parse_header_only_is_error(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [])
    with pytest.raises(SchemaError, match="no records"):
        parse_g5_csv(path)


def test_parse_empty_file_is_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        parse_g5_csv(path)


def test_parse_missing_column_named(tmp_path):
    path = tmp_path / "t.csv"
    header = [h for h in HEADER if h != "Zn"]
    write_rows(path, header, [])
    with pytest.raises(SchemaError, match="Zn"):
        parse_g5_csv(path)


def test_parse_duplicate_site_id(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row("A1"), sample_row("A1")])
    with pytest.raises(DataError, match="duplicate"):
        parse_g5_csv(path)


@pytest.mark.parametrize("blank", ["", "  "])
def test_parse_blank_site_id_names_its_line(tmp_path, blank):
    # One blank id is rejected, and two are named as blank, not as repeated.
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row("A1"), sample_row(blank), sample_row(blank)])
    assert outcome(parse_g5_csv, path) == outcome(oracle_ingest.parse, path) == (
        RowParseError, f"{path}: line 3: blank site_id")


@pytest.mark.parametrize("cell, named", [("-9999", "'-9999'"), ("-0.5", "'-0.5'"),
                                          ("<-2", "'<-2'")])
def test_parse_negative_concentration_names_line_and_element(tmp_path, cell, named):
    # A negative value, such as the -9999 missing-value code, is rejected;
    # zero, and a zero written with a minus sign, are valid.
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row("A1", sb="0"), sample_row("B2", sb="-0.0"),
                              sample_row("C3", sb=cell)])
    assert outcome(parse_g5_csv, path) == outcome(oracle_ingest.parse, path) == (
        RowParseError, f"{path}: line 4: negative concentration for Sb: {named}")
    # A zero written with a minus sign reads as 0.0, as a coordinate too, on
    # the column pass (As, easting) and cell by cell (Sb, beside a "<DL").
    rows = [sample_row("A1", sb="0"), sample_row("B2", sb="-0.0"), sample_row("C3", sb="<-0")]
    rows[1][1], rows[2][3] = "-0e3", "-0"
    write_rows(path, HEADER, rows)
    assert outcome(parse_g5_csv, path) == outcome(oracle_ingest.parse, path)
    table = parse_g5_csv(path)
    assert table.concentrations[:, ELEMENTS.index("Sb")].tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(table.itm).any() and not np.signbit(table.concentrations).any()


def test_parse_skips_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_rows(plain, HEADER, [sample_row("A1"), sample_row("B2", sb="<0.5")])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = outcome(parse_g5_csv, plain)
    assert not isinstance(want[0], type)
    assert outcome(parse_g5_csv, marked) == outcome(oracle_ingest.parse, marked) == want


def test_parse_case_insensitive_headers(tmp_path):
    path = tmp_path / "t.csv"
    header = ["site_id", "easting", "northing", *(e.upper() for e in ELEMENTS)]
    write_rows(path, header, [sample_row()])
    assert parse_g5_csv(path).n == 1


def test_select_features_shape_and_order(tmp_path):
    path = tmp_path / "t.csv"
    ids, e, n, conc = surrogate_survey(n=3, seed=1)
    write_survey_csv(path, ids, e, n, conc)
    table = parse_g5_csv(path)
    assert table.concentrations.shape == (3, 15)
    np.testing.assert_allclose(table.concentrations, conc)


def test_standardize_three_point_column():
    matrix = np.array([[1.0], [2.0], [3.0]])
    out, params = standardize(matrix)
    np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0])
    assert params.scale[0] == pytest.approx(1.0)


def test_standardize_none_is_identity():
    matrix = np.array([[1.0, 5.0], [2.0, 7.0]])
    out, params = standardize(matrix, method="none")
    np.testing.assert_array_equal(out, matrix)
    np.testing.assert_array_equal(params.center, [0.0, 0.0])
    np.testing.assert_array_equal(params.scale, [1.0, 1.0])


def test_standardize_constant_column_errors():
    matrix = np.column_stack([np.arange(4.0), np.full(4, 5.0)])
    with pytest.raises(DegenerateColumnError, match="Ba"):
        standardize(matrix)


@pytest.mark.parametrize("top", [1e202, 1.7e308])
def test_standardize_column_whose_moments_overflow_errors(top):
    # At 1e202 the squared deviations overflow (an infinite scale); at
    # 1.7e308 the sum does (an infinite center). Every value is finite.
    conc = surrogate_survey(n=400, seed=0)[3]
    conc[:, 0] *= top / conc[:, 0].max()
    assert np.isfinite(conc).all()
    with pytest.raises(DegenerateColumnError, match=r"column\(s\): As$"):
        standardize(conc)


def test_standardize_moments():
    rng = np.random.default_rng(3)
    matrix = rng.lognormal(1, 1, (50, 15))
    out, _ = standardize(matrix)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 1e-10)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (7, 3),
              elements=st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False)))
def test_standardize_round_trip_and_idempotence(matrix):
    if np.any(matrix.std(axis=0, ddof=1) < 1e-9):
        return
    out, params = standardize(matrix)
    np.testing.assert_allclose(out * params.scale + params.center, matrix,
                               atol=1e-9 * max(1, np.abs(matrix).max()))
    again, _ = standardize(out)
    np.testing.assert_allclose(again, out, atol=1e-9)


def test_parse_non_finite_detection_limit_rejected(tmp_path):
    path = tmp_path / "t.csv"
    for cell in ("<nan", "<inf", "<-inf"):
        write_rows(path, HEADER, [sample_row(), sample_row("B2", sb=cell)])
        with pytest.raises(RowParseError, match=r"t\.csv: line 3: non-finite .*Sb"):
            parse_g5_csv(path)


# ------------------------------------------------- column pass vs row loop

def outcome(parse, *args):
    """A parse's table as exact bytes, or its error's class and message."""
    try:
        table = parse(*args)
    except SpatialCpfError as exc:
        return type(exc), str(exc)
    return (table.site_ids, table.itm.shape, table.itm.tobytes(), table.itm.flags.c_contiguous,
            table.concentrations.shape, table.concentrations.tobytes(),
            table.concentrations.flags.c_contiguous)


def write_csv_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# Spellings float() reads of numbers in [0, 1000]: plain decimals that are
# not repr()'s, and cells that are not plain (padded, "_", non-ASCII digits,
# zeros written with a minus sign).
SPELLINGS = ("45", "4.50", "1E3", "+2", ".5", "5.", " 7 ", "1_0", "\u0663", "-0", "-0.0",
             "-.0e2", "0", "0.0", "1e-5", "+1.5E+2")


@st.composite
def number_cells(draw, low, high):
    """The text of a float in [low, high], in one of the forms float() reads,
    or (high at least 1000) one of SPELLINGS."""
    value = draw(st.floats(low, high))
    forms = ["repr", "padded", "underscore", "integer", "exponent"]
    form = draw(st.sampled_from(forms + (["spelled"] if high >= 1000 else [])))
    if form == "spelled":
        return draw(st.sampled_from(SPELLINGS))
    if form == "padded":
        return draw(st.sampled_from([" ", "\t", "  "])) + repr(value) + " "
    if form == "underscore":
        return "_".join(str(int(value)))
    if form == "integer":
        return str(int(value))
    return repr(value) if form == "repr" else f"{value:.6e}"


@st.composite
def survey_tables(draw, bdl_policy):
    """A valid survey table as CSV rows: the required columns under drawn
    aliases in drawn case, extra columns, all in a drawn order, then data
    rows (some with extra cells) and blank lines."""
    names = [draw(st.sampled_from(ingest.DEFAULT_ALIASES[name]))
             for name in ("site_id", "easting", "northing", *ELEMENTS)]
    names = [draw(st.sampled_from([n, n.upper(), n.title()])) for n in names]
    extra = [f"extra{i}" for i in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(names) + len(extra))))
    header = [(names + extra)[i] for i in order]
    position = {i: order.index(i) for i in range(len(names))}
    rows = [header]
    n = draw(st.integers(1, 12))
    for r in range(n):
        cells = [draw(st.sampled_from(["", "x"])) for _ in header]
        cells[position[0]] = draw(st.sampled_from(["", " ", "\t"])) + f"S{r}"
        cells[position[1]] = draw(number_cells(0.0, 1_200_000.0))
        cells[position[2]] = draw(number_cells(0.0, 1_500_000.0))
        for j in range(len(ELEMENTS)):
            cell = draw(number_cells(0.0, 1e4))
            if bdl_policy == "half_dl" and draw(st.integers(0, 4)) == 0:
                cell = "<" + cell.strip()
            cells[position[3 + j]] = cell
        rows.append(cells + ["y"] * draw(st.integers(0, 2)))
        if draw(st.integers(0, 15)) == 0:
            rows.append(draw(st.sampled_from([[], [""], [" ", ""]])))
    return rows


# A fault the row loop rejects, placed in one cell or row of a valid table.
FAULTS = ("short_row", "blank_id", "duplicate_id", "nan", "inf", "out_of_range", "below_dl",
          "negative", "text")


def inject(rows, fault, r, j, bdl_policy):
    """rows with the fault at data row r (0 = the first data row); j picks
    the concentration column of a cell fault."""
    header, data = rows[0], [list(row) for row in rows[1:] if row and any(c.strip() for c in row)]
    row = data[r % len(data)]
    lower = [h.lower() for h in header]
    site = next(lower.index(a) for a in ingest.DEFAULT_ALIASES["site_id"] if a in lower)
    east = next(lower.index(a) for a in ingest.DEFAULT_ALIASES["easting"] if a in lower)
    element = lower.index(ELEMENTS[j % len(ELEMENTS)].lower())
    if len(row) <= max(site, east, element):
        # An earlier short_row fault cut off the cell; the row stays short.
        return [header] + data
    if fault == "short_row":
        del row[max(site, east, element):]
    elif fault == "blank_id":
        row[site] = " "
    elif fault == "duplicate_id":
        data.insert(r % len(data) + 1, list(row))
    elif fault in ("nan", "inf"):
        row[element if j % 2 else east] = fault
    elif fault == "out_of_range":
        row[east] = "-1.0" if j % 2 else "2e6"
    elif fault == "below_dl":
        row[element] = "<0.5" if bdl_policy == "reject" else "<0.5x"
    elif fault == "negative":
        row[element] = "-9999" if j % 2 else " -1e-300"
    else:
        row[element] = "1.0x"
    return [header] + data


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), bdl_policy=st.sampled_from(["half_dl", "reject"]),
       chunk_rows=st.sampled_from([1, 2, 3, fileio.CHUNK_ROWS]))
def test_column_pass_equals_row_loop_on_valid_tables(tmp_path, data, bdl_policy, chunk_rows):
    path = tmp_path / "valid.csv"
    write_csv_rows(path, data.draw(survey_tables(bdl_policy)))
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        got = outcome(parse_g5_csv, path, bdl_policy)
    assert got == outcome(oracle_ingest.parse, path, bdl_policy)
    assert not isinstance(got[0], type)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), bdl_policy=st.sampled_from(["half_dl", "reject"]),
       chunk_rows=st.sampled_from([1, 2, 3, fileio.CHUNK_ROWS]),
       faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 11),
                                 st.integers(0, 14)), min_size=1, max_size=2))
def test_column_pass_raises_as_row_loop_on_invalid_tables(tmp_path, data, bdl_policy,
                                                          chunk_rows, faults):
    rows = data.draw(survey_tables(bdl_policy))
    for fault, r, j in faults:
        rows = inject(rows, fault, r, j, bdl_policy)
    path = tmp_path / "invalid.csv"
    write_csv_rows(path, rows)
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        got = outcome(parse_g5_csv, path, bdl_policy)
    assert got == outcome(oracle_ingest.parse, path, bdl_policy)
    assert isinstance(got[0], type)


def test_error_names_line_after_quoted_line_breaks(tmp_path):
    # Site ids may hold quoted line breaks; an error names the line on which
    # its row ends, as the csv module counts lines.
    path = tmp_path / "t.csv"
    write_csv_rows(path, [HEADER, sample_row("A\n1"), sample_row("B\r\n2"),
                          sample_row("C3", sb="oops")])
    message = f"{path}: line 6: non-numeric concentration for Sb: 'oops'"
    assert outcome(parse_g5_csv, path) == outcome(oracle_ingest.parse, path) == (
        RowParseError, message)


def test_duplicate_site_id_named_before_bad_cells_of_its_row(tmp_path):
    # The row loop's order: a repeated id is named before the row's cells.
    path = tmp_path / "t.csv"
    repeated = sample_row("A1", sb="oops")
    repeated[1] = "east"
    write_rows(path, HEADER, [sample_row("A1"), repeated])
    assert outcome(parse_g5_csv, path) == outcome(oracle_ingest.parse, path) == (
        DataError, f"{path}: line 3: duplicate site_id 'A1'")


def test_bad_cell_in_later_chunk_reports_earlier_chunk_first(tmp_path):
    # Two chunks of 256 rows: the second holds a non-numeric cell, the first
    # a non-finite one further on in its row order; the first in file order wins.
    path = tmp_path / "t.csv"
    rows = [sample_row(f"S{i}") for i in range(300)]
    rows[280] = sample_row("S280", sb="oops")
    rows[200] = sample_row("S200", sb="inf")
    write_rows(path, HEADER, rows)
    with pytest.raises(RowParseError, match=r"line 202: non-finite concentration for Sb"):
        parse_g5_csv(path)


def test_regular_table_parses_by_columns_alone(tmp_path, monkeypatch):
    # "<DL" cells, padding, underscores, extra columns and empty lines are
    # regular: the file is never read again one row at a time.
    def chunks(reader, rows, chunks_=fileio._chunks):
        assert rows == fileio.CHUNK_ROWS, "one-row run"
        return chunks_(reader, rows)
    monkeypatch.setattr(fileio, "_chunks", chunks)
    path = tmp_path / "t.csv"
    ids, e, n, conc = surrogate_survey(n=600, seed=4)
    e, n, conc = e.tolist(), n.tolist(), conc.tolist()
    rows = [[sid, f" {e[i]!r} ", "_".join(str(int(n[i]))), *map(repr, conc[i]), "extra"]
            for i, sid in enumerate(ids)]
    rows[5][3 + ELEMENTS.index("Sb")] = "<0.5"
    rows.insert(300, [])
    write_csv_rows(path, [HEADER + ["note"]] + rows)
    table = parse_g5_csv(path)
    assert table.n == 600
    assert table.concentrations[5, ELEMENTS.index("Sb")] == 0.25
    np.testing.assert_array_equal(table.itm[:, 1], np.floor(n))


def test_blank_rows_stay_on_the_chunked_run(tmp_path, monkeypatch):
    # Rows of blank cells, mid-file and at the end as spreadsheet exports
    # leave them, are dropped inside their chunk: the file is read once.
    sizes = []

    def chunks(reader, rows, chunks_=fileio._chunks):
        sizes.append(rows)
        return chunks_(reader, rows)
    monkeypatch.setattr(fileio, "_chunks", chunks)
    path = tmp_path / "t.csv"
    ids, e, n, conc = surrogate_survey(n=600, seed=5)
    e, n, conc = e.tolist(), n.tolist(), conc.tolist()
    rows = [[sid, *map(repr, [e[i], n[i], *conc[i]])] for i, sid in enumerate(ids)]
    rows.insert(300, ["", "", "", ""])
    rows += [["", "", "", ""], [" ", ""]]
    write_csv_rows(path, [HEADER] + rows)
    got = outcome(parse_g5_csv, path)
    assert sizes == [fileio.CHUNK_ROWS]
    assert got == outcome(oracle_ingest.parse, path)
    assert len(got[0]) == 600


def test_parse_and_samples_write_memory_bounded(tmp_path):
    # 8000 rows: parsing holds fileio.CHUNK_ROWS rows of text at a time, and
    # the ingest stage writes each chunk's text to samples.csv as it goes.
    # Holding every row at once peaks at about 17 MiB parsing, and holding
    # the text until the write adds about 10 MiB to the stage.
    path = tmp_path / "survey.csv"
    write_survey_csv(path, *surrogate_survey(n=8000, seed=0))
    config = pipeline.PipelineConfig.from_dict({"input": str(path), "output_dir": str(tmp_path)})
    tracemalloc.start()
    try:
        parse_g5_csv(path)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pipeline.stage_ingest(config)
        ingest_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert parse_peak < 8 * 2**20
    assert ingest_peak - parse_peak < 4 * 2**20


# ------------------------------------------------ samples.csv from the survey's text

# A cell whose own text samples.csv keeps: a plain ASCII decimal whose
# float() is the value ingest keeps, bit for bit.
PLAIN_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
# SPATIALCPF_FUZZ_EXAMPLES sets the round trip's examples (CI runs 3000).
SAMPLES_ROUND_TRIP = settings(
    max_examples=int(os.environ.get("SPATIALCPF_FUZZ_EXAMPLES", "80")), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def ingest_to(tmp_path, survey, name, chunk_rows=fileio.CHUNK_ROWS) -> bytes:
    """The bytes of the samples.csv the ingest stage writes from survey."""
    config = pipeline.PipelineConfig.from_dict({"input": str(survey),
                                                "output_dir": str(tmp_path)})
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        return pipeline.stage_ingest(config, out_path=tmp_path / name).read_bytes()


@SAMPLES_ROUND_TRIP
@given(data=st.data())
def test_samples_csv_round_trips(tmp_path, data):
    rows = data.draw(survey_tables("half_dl"))
    survey = tmp_path / "survey.csv"
    idx = ingest._column_index(rows[0], survey)
    data_rows = [row for row in rows[1:] if row and any(cell.strip() for cell in row)]
    # Site ids that need quoting, unique once stripped.
    for r, row in enumerate(data_rows):
        row[idx["site_id"]] = data.draw(st.text(st.sampled_from('Sa ,"\r\n\t'))) + f"#{r}"
    # With CRLF line ends, csv.writer quotes a cell holding a CR or an LF.
    with open(survey, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)
    written = [ingest_to(tmp_path, survey, f"samples{k}.csv", k) for k in (1, 3, 256)]
    assert written[0] == written[1] == written[2]
    samples = tmp_path / "samples256.csv"
    table = parse_g5_csv(survey)
    # It reads back as the survey's table, bit for bit (signs of zero too).
    assert outcome(parse_g5_csv, samples) == outcome(lambda: table)
    with open(samples, encoding="utf-8", newline="") as fh:
        header, *out_rows = csv.reader(fh)
    assert header == ["site_id", "easting", "northing", *ELEMENTS]
    assert len(out_rows) == len(data_rows)
    values = np.column_stack([table.itm, table.concentrations]).tolist()
    for row, out, row_values in zip(data_rows, out_rows, values):
        assert out[0] == row[idx["site_id"]].strip()
        for name, cell, value in zip(("easting", "northing", *ELEMENTS), out[1:], row_values):
            text = row[idx[name]]
            own = (PLAIN_DECIMAL.fullmatch(text) is not None
                   and float(text).hex() == value.hex())
            assert cell == (text if own else repr(value)), (name, text, value)
    # Ingesting samples.csv writes it again, byte for byte.
    assert ingest_to(tmp_path, samples, "again.csv") == written[0]
    # On a survey of repr() spellings, it is what the repr writer writes.
    reprs = tmp_path / "reprs.csv"
    oracle_samples.write(table, reprs)
    assert ingest_to(tmp_path, reprs, "from_reprs.csv") == reprs.read_bytes()


def test_samples_written_once_when_parse_runs_again(tmp_path, monkeypatch):
    # The chunked parse fails after two chunks, which ingest wrote; read_csv
    # parses again one row a chunk, and samples.csv starts over.
    survey = tmp_path / "survey.csv"
    write_survey_csv(survey, *surrogate_survey(n=600, seed=2))
    want = ingest_to(tmp_path, survey, "want.csv")
    parse_rows, calls = ingest._parse_rows, []

    def fail_after(header, chunks, **kwargs):
        calls.append(kwargs)
        if len(calls) > 1:
            return parse_rows(header, chunks, **kwargs)

        def two_then_fail():
            yield from islice(chunks, 2)
            raise ValueError("injected")
        return parse_rows(header, two_then_fail(), **kwargs)
    monkeypatch.setattr(ingest, "_parse_rows", fail_after)
    assert ingest_to(tmp_path, survey, "got.csv") == want
    assert len(calls) == 2


def test_staged_run_parses_samples_without_text(tmp_path, survey_csv, monkeypatch):
    # Only the ingest stage takes the survey's text; a stage that reads
    # samples.csv back asks for none.
    config = pipeline.PipelineConfig.from_dict({"input": str(survey_csv),
                                                "output_dir": str(tmp_path)})
    pipeline.stage_ingest(config)
    texts, parse = [], ingest.parse_g5_csv

    def recording(*args, **kwargs):
        texts.append(kwargs.get("text"))
        return parse(*args, **kwargs)
    monkeypatch.setattr(ingest, "parse_g5_csv", recording)
    pipeline.stage_project(config)
    assert texts == [None]
