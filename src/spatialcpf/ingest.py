"""CSV ingestion of geochemical soil-sample tables and feature standardization.

The input is a comma-delimited UTF-8 file with one header row. Each data row
carries a site identifier, planar ITM coordinates in meters within
geodesy.EASTING_RANGE and NORTHING_RANGE, and concentrations in mg/kg for
the 15 elements in ELEMENTS. Values prefixed with "<" mark measurements
below the detection limit.

parse_g5_csv converts whole columns, _CHUNK_ROWS rows at a time, with one
float() map per column; only a column holding a "<DL" or bad cell is parsed
cell by cell. Each chunk's row widths are checked at once, and the
finiteness, ITM-range and unique-id checks run once over the whole arrays.
A file that fails any of them is parsed again by the row loop, which stays
as the error locator: its error names the first bad cell in file order,
line and element.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DataError, DegenerateColumnError, RowParseError, SchemaError
from .geodesy import itm_in_range

# Fixed alphabetical element order; serialization and feature-matrix columns
# always follow this sequence.
ELEMENTS = (
    "As", "Ba", "Bi", "Co", "Cr", "Cu", "Mn", "Mo",
    "Ni", "Pb", "Sb", "Sn", "U", "V", "Zn",
)

# Header names accepted (case-insensitively) for each required column, in the
# order the columns are looked up.
DEFAULT_ALIASES = {
    **{element: (element.lower(),) for element in ELEMENTS},
    "site_id": ("site_id", "sample_id", "sample", "site", "id", "sampleid"),
    "easting": ("easting", "easting_itm", "itm_e", "x_itm", "x"),
    "northing": ("northing", "northing_itm", "itm_n", "y_itm", "y"),
}


@dataclass(frozen=True)
class SampleTable:
    """Columnar sample table; row i of every field is site i, in file order.

    itm is (n, 2) easting and northing in meters, concentrations (n, 15) in
    mg/kg in ELEMENTS order. Both arrays are made read-only, since one table
    is shared by every pipeline stage.
    """
    site_ids: tuple[str, ...]
    itm: np.ndarray
    concentrations: np.ndarray

    def __post_init__(self):
        self.itm.setflags(write=False)
        self.concentrations.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.site_ids)


@dataclass(frozen=True)
class ScalingParams:
    center: np.ndarray
    scale: np.ndarray


# Rows the column pass reads at a time, which bounds the text it holds.
_CHUNK_ROWS = 256


def _column_index(header: list[str], path) -> dict[str, int]:
    """Header position of each DEFAULT_ALIASES column, by its first alias."""
    lower = {h.lower().strip(): i for i, h in enumerate(header)}
    index = {}
    for name, aliases in DEFAULT_ALIASES.items():
        found = [lower[alias] for alias in aliases if alias in lower]
        if not found:
            raise SchemaError(f"{path}: missing required column: {name}")
        index[name] = found[0]
    return index


def _parse_concentration(raw: str, element: str, bdl_policy: str) -> float:
    """A finite concentration, "<DL" giving DL/2; ValueError names a bad cell."""
    raw = raw.strip()
    below = raw.startswith("<")
    if below and bdl_policy == "reject":
        raise ValueError(f"below-detection-limit value for {element}: {raw!r}")
    try:
        value = float(raw[1:] if below else raw)
    except ValueError:
        what = "unparseable detection limit" if below else "non-numeric concentration"
        raise ValueError(f"{what} for {element}: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite concentration for {element}: {raw!r}")
    return value / 2.0 if below else value


def parse_g5_csv(path, bdl_policy: str = "half_dl") -> SampleTable:
    """Parse a G5-style CSV into a SampleTable, preserving file row order.

    bdl_policy "half_dl" substitutes "<DL" markers with DL/2; "reject" raises
    a row-level error instead. Column names are matched case-insensitively
    against DEFAULT_ALIASES. The rows are parsed a column at a time
    (_parse_rows); a file with any irregular row or cell is read again by the
    row loop (_row_loop), whose error names the first bad cell in file order;
    a line the csv module cannot read raises RowParseError naming it.
    """
    if bdl_policy not in ("half_dl", "reject"):
        raise ValueError(f"unknown bdl_policy: {bdl_policy}")
    try:
        for parse in (_parse_rows, _row_loop):
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                table = parse(reader, path, bdl_policy)
            if table is not None:
                return table
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
        raise RowParseError(path, reader.line_num, str(exc)) from None


def _read_header(reader, path) -> tuple[list[str], dict[str, int]]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"empty file: {path}")
    return header, _column_index(header, path)


def _concentrations(cells, element: str, bdl_policy: str) -> list[float]:
    """A column's concentrations: float() of every cell, or, when a cell
    ("<DL" or bad) makes that raise, _parse_concentration of each."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_concentration(cell, element, bdl_policy) for cell in cells]


def _parse_rows(reader, path, bdl_policy: str) -> SampleTable | None:
    """The table parsed by whole columns, _CHUNK_ROWS rows at a time, or
    None if any row or cell is irregular: a blank or short row, a cell that
    does not parse, a non-finite value, an ITM coordinate out of range or a
    repeated site id. Each value is the float the row loop makes of its cell."""
    _, idx = _read_header(reader, path)
    width = max(idx.values()) + 1
    site_ids, blocks = [], []
    try:
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            rows = list(filter(None, chunk))  # csv.reader gives [] for an empty line
            if not rows:
                continue
            if min(map(len, rows)) < width:
                return None
            cells = list(zip(*rows))
            site_ids += map(str.strip, cells[idx["site_id"]])
            blocks.append(np.array([list(map(float, cells[idx["easting"]])),
                                    list(map(float, cells[idx["northing"]])),
                                    *(_concentrations(cells[idx[element]], element, bdl_policy)
                                      for element in ELEMENTS)]))
    except (ValueError, csv.Error):  # a bad cell, a csv syntax error or non-UTF-8 text
        return None
    if not site_ids:
        raise SchemaError(f"no records in {path}")
    values = np.concatenate(blocks, axis=1)
    if (not np.isfinite(values).all() or not itm_in_range(values[0], values[1]).all()
            or len(set(site_ids)) < len(site_ids)):
        return None
    return SampleTable(site_ids=tuple(site_ids), itm=values[:2].T.copy(),
                       concentrations=values[2:].T.copy())


def _row_loop(reader, path, bdl_policy: str) -> SampleTable:
    """The table parsed row by row: the error locator of parse_g5_csv. The
    first bad row, in file order, raises an error naming its line and,
    within the row, its first bad cell."""
    header, idx = _read_header(reader, path)
    element_cols = [(element, idx[element]) for element in ELEMENTS]
    width = max(idx.values()) + 1

    site_ids, itm, concentrations = [], [], []
    seen_ids = set()
    for line_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < width:
            raise RowParseError(
                path, line_number, f"row has {len(row)} cells, header has {len(header)}")
        site_id = row[idx["site_id"]].strip()
        if site_id in seen_ids:
            raise DataError(f"{path}: line {line_number}: duplicate site_id {site_id!r}")
        seen_ids.add(site_id)
        try:
            easting = float(row[idx["easting"]])
            northing = float(row[idx["northing"]])
        except ValueError:
            raise RowParseError(path, line_number, "non-numeric coordinate")
        if not (math.isfinite(easting) and math.isfinite(northing)):
            raise RowParseError(path, line_number, "non-finite coordinate")
        if not itm_in_range(easting, northing):
            raise RowParseError(path, line_number, f"ITM coordinate out of range: "
                                                   f"easting={easting}, northing={northing}")
        try:
            concentrations.append([_parse_concentration(row[col], element, bdl_policy)
                                   for element, col in element_cols])
        except ValueError as exc:
            raise RowParseError(path, line_number, str(exc)) from None
        site_ids.append(site_id)
        itm.append((easting, northing))

    if not site_ids:
        raise SchemaError(f"no records in {path}")
    return SampleTable(site_ids=tuple(site_ids), itm=np.array(itm, dtype=float),
                       concentrations=np.array(concentrations, dtype=float))


def standardize(matrix: np.ndarray, method: str = "zscore",
                element_order=ELEMENTS) -> tuple[np.ndarray, ScalingParams]:
    """Column-wise standardization. Sample std (ddof=1) under zscore."""
    matrix = np.asarray(matrix, dtype=float)
    if method == "none":
        d = matrix.shape[1]
        return matrix.copy(), ScalingParams(np.zeros(d), np.ones(d))
    if method != "zscore":
        raise ValueError(f"unknown scaling method: {method}")
    center = matrix.mean(axis=0)
    scale = matrix.std(axis=0, ddof=1)
    bad = np.flatnonzero(scale == 0.0)
    if bad.size:
        names = [element_order[j] if j < len(element_order) else str(j) for j in bad]
        raise DegenerateColumnError(f"zero-variance column(s): {', '.join(names)}")
    return (matrix - center) / scale, ScalingParams(center, scale)
