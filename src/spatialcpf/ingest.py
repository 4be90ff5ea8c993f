"""CSV ingestion of geochemical soil-sample tables and feature standardization.

The input is a comma-delimited UTF-8 file with one header row; a leading
byte-order mark is skipped. Each data row carries a non-blank site
identifier, unique in the file, planar ITM coordinates in meters within
geodesy.EASTING_RANGE and NORTHING_RANGE, and concentrations in mg/kg for
the 15 elements in ELEMENTS, none negative. Values prefixed with "<" mark
measurements below the detection limit.

parse_g5_csv reads the file through fileio.read_csv, CHUNK_ROWS rows at a
time: each column is converted by one float() map, and only a column holding
a "<DL", bad, non-finite or negative cell is parsed cell by cell. Every rule
is checked once per chunk over whole columns. A file that breaks one is
parsed again one row at a time by the same code, whose error names the
first bad row in file order, its line and its first bad cell. A zero
written with a minus sign reads as 0.0, so no value is a negative zero.

It can also hand on the text of each chunk it accepts, from which the
pipeline writes samples.csv: the stripped site ids, then each number cell
as it is where it is a plain decimal (_PLAIN), whose value is float() of
its text, else repr() of its value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DegenerateColumnError, RowParseError, SchemaError
from .fileio import read_csv
from .geodesy import itm_in_range

# Fixed alphabetical element order; serialization and feature-matrix columns
# always follow this sequence.
ELEMENTS = (
    "As", "Ba", "Bi", "Co", "Cr", "Cu", "Mn", "Mo",
    "Ni", "Pb", "Sb", "Sn", "U", "V", "Zn",
)

# The numeric columns, in SampleTable's order: its itm, then its concentrations.
_NUMBERS = ("easting", "northing", *ELEMENTS)

# Header names accepted (case-insensitively) for each required column, in the
# order the columns are looked up.
DEFAULT_ALIASES = {
    **{element: (element.lower(),) for element in ELEMENTS},
    "site_id": ("site_id", "sample_id", "sample", "site", "id", "sampleid"),
    "easting": ("easting", "easting_itm", "itm_e", "x_itm", "x"),
    "northing": ("northing", "northing_itm", "itm_n", "y_itm", "y"),
}


# A plain ASCII decimal with no minus sign, whose value is float() of its
# text: a "<DL" cell (halved) does not match, and a cell with a minus sign
# that parses is a zero (negative values are rejected), read as 0.0.
# _PLAIN_COLUMN matches a chunk column's cells joined by commas; no cell
# that float() reads holds a comma.
_PLAIN = r"\+?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_PLAIN_CELL = re.compile(_PLAIN)
_PLAIN_COLUMN = re.compile(f"{_PLAIN}(?:,{_PLAIN})*")


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
    """A finite concentration, not negative, "<DL" giving DL/2; ValueError
    names a bad cell."""
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
    if value < 0:
        raise ValueError(f"negative concentration for {element}: {raw!r}")
    return value / 2.0 if below else value


def parse_g5_csv(path, bdl_policy: str = "half_dl", text=None) -> SampleTable:
    """Parse a G5-style CSV into a SampleTable, preserving file row order.

    bdl_policy "half_dl" substitutes "<DL" markers with DL/2; "reject" raises
    a row-level error instead. Column names are matched case-insensitively
    against DEFAULT_ALIASES. An error names the first bad row in file order,
    its line and its first bad cell.

    text, when given, is called as each parse of the file starts (read_csv
    parses it again after an error) and returns the function that is then
    called with each accepted chunk's text columns, in file order: the
    stripped site ids, then easting, northing and ELEMENTS, each cell as
    _cell_text gives it.
    """
    if bdl_policy not in ("half_dl", "reject"):
        raise ValueError(f"unknown bdl_policy: {bdl_policy}")
    return read_csv(path, partial(_parse_rows, path=path, bdl_policy=bdl_policy, text=text))


def _concentrations(columns, bdl_policy: str) -> np.ndarray:
    """(15, rows) concentrations of a chunk's ELEMENTS columns: float() of
    each cell, but _parse_concentration of each cell of a column holding a
    "<DL", bad, non-finite or negative cell, column by column in ELEMENTS order."""
    values = []
    for element, cells in zip(ELEMENTS, columns):
        try:
            column = list(map(float, cells))
        except ValueError:
            column = [math.nan]
        if not math.isfinite(sum(column)) or min(column) < 0:  # or the sum overflows
            column = [_parse_concentration(cell, element, bdl_policy) for cell in cells]
        values.append(column)
    return np.array(values)


def _cell_text(cells: tuple[str, ...], values: np.ndarray) -> tuple[str, ...] | list[str]:
    """The text of a chunk column: each cell that is a plain decimal as it
    is, any other as repr() of its value. One match decides a column whose
    cells are all plain."""
    if _PLAIN_COLUMN.fullmatch(",".join(cells)):
        return cells
    return [cell if _PLAIN_CELL.fullmatch(cell) else repr(value)
            for cell, value in zip(cells, values.tolist())]


def _parse_rows(header, chunks, path, bdl_policy: str, text=None) -> SampleTable:
    """The table from fileio.read_csv's header and chunks. The rules run in
    the order a row's first failure is named (width, blank site id,
    repeated site id, ITM coordinate non-numeric, non-finite or out of
    range, each concentration in ELEMENTS order). An error names the
    chunk's first row, so only the one-row run's is raised. A row of blank
    cells is skipped. Each accepted chunk's text columns go to the function
    text() returns (see parse_g5_csv)."""
    if header is None:
        raise SchemaError(f"empty file: {path}")
    idx = _column_index(header, path)
    width = max(idx.values()) + 1
    write = text() if text else None
    site_ids, seen, blocks = [], set(), []
    for line, rows in chunks:
        rows = [row for row in rows if any(map(str.strip, row))]
        if not rows:
            continue
        short = min(map(len, rows))
        if short < width:
            raise RowParseError(path, line, f"row has {short} cells, header has {len(header)}")
        cells = list(zip(*rows))
        ids = list(map(str.strip, cells[idx["site_id"]]))
        if not all(ids):
            raise RowParseError(path, line, "blank site_id")
        seen.update(ids)
        if len(seen) < len(site_ids) + len(ids):
            raise DataError(f"{path}: line {line}: duplicate site_id {ids[0]!r}")
        site_ids += ids
        try:
            itm = np.array([list(map(float, cells[idx["easting"]])),
                            list(map(float, cells[idx["northing"]]))])
        except ValueError:
            raise RowParseError(path, line, "non-numeric coordinate") from None
        if not np.isfinite(itm).all():
            raise RowParseError(path, line, "non-finite coordinate")
        if not itm_in_range(*itm).all():
            raise RowParseError(path, line, "ITM coordinate out of range: easting={}, "
                                            "northing={}".format(*itm[:, 0].tolist()))
        try:
            block = np.concatenate([itm, _concentrations(
                (cells[idx[element]] for element in ELEMENTS), bdl_policy)])
        except ValueError as exc:
            raise RowParseError(path, line, str(exc)) from None
        block += 0.0  # -0.0 + 0.0 is 0.0
        blocks.append(block)
        if write:
            write([ids, *map(_cell_text, (cells[idx[name]] for name in _NUMBERS), block)])
    if not site_ids:
        raise SchemaError(f"no records in {path}")
    values = np.concatenate(blocks, axis=1)
    return SampleTable(site_ids=tuple(site_ids), itm=values[:2].T.copy(),
                       concentrations=values[2:].T.copy())


def standardize(matrix: np.ndarray, method: str = "zscore") -> tuple[np.ndarray, ScalingParams]:
    """Column-wise standardization. Sample std (ddof=1) under zscore. A
    degenerate column is named by ELEMENTS, or by its index past them."""
    matrix = np.asarray(matrix, dtype=float)
    if method == "none":
        d = matrix.shape[1]
        return matrix.copy(), ScalingParams(np.zeros(d), np.ones(d))
    if method != "zscore":
        raise ValueError(f"unknown scaling method: {method}")
    # A column's sum or squared deviations can overflow, each value finite.
    with np.errstate(over="ignore", invalid="ignore"):
        center = matrix.mean(axis=0)
        scale = matrix.std(axis=0, ddof=1)
    for what, bad in (("zero-variance", scale == 0.0),
                      ("non-finite mean or standard deviation in",
                       ~(np.isfinite(center) & np.isfinite(scale)))):
        names = [ELEMENTS[j] if j < len(ELEMENTS) else str(j)
                 for j in np.flatnonzero(bad)]
        if names:
            raise DegenerateColumnError(f"{what} column(s): {', '.join(names)}")
    return (matrix - center) / scale, ScalingParams(center, scale)
