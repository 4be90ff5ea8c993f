import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import surrogate_survey, write_survey_csv
from spatialcpf.errors import (DataError, DegenerateColumnError, RowParseError,
                               SchemaError)
from spatialcpf.ingest import (ELEMENTS, parse_g5_csv, select_features,
                               standardize)


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
    assert table.site_ids() == ["A1", "B2", "C3"]
    assert table.n == 3


def test_parse_bdl_half_dl(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, HEADER, [sample_row(sb="<0.5")])
    table = parse_g5_csv(path, bdl_policy="half_dl")
    assert table.records[0].concentrations["Sb"] == pytest.approx(0.25)


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
    matrix = select_features(table)
    assert matrix.shape == (3, 15)
    np.testing.assert_allclose(matrix, conc)


def test_standardize_three_point_column():
    matrix = np.array([[1.0], [2.0], [3.0]])
    out, params = standardize(matrix, element_order=("X",))
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
        standardize(matrix, element_order=("As", "Ba"))


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
    out, params = standardize(matrix, element_order=("A", "B", "C"))
    np.testing.assert_allclose(params.inverse(out), matrix, atol=1e-9 * max(1, np.abs(matrix).max()))
    again, _ = standardize(out, element_order=("A", "B", "C"))
    np.testing.assert_allclose(again, out, atol=1e-9)
