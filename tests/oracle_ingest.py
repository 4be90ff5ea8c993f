"""Row-by-row survey parser, the oracle for ingest.parse_g5_csv.

The loop parse_g5_csv ran before it parsed by columns: each row is checked
in turn, in the order a row's first failure is reported (width, blank site
id, duplicate site id, coordinates, then each concentration in ELEMENTS
order, a negative one rejected as a bad one), and a row of blank cells is
skipped. A zero written with a minus sign reads as 0.0. A leading
byte-order mark is skipped. Its error names the row's line as csv.reader
counts lines, so a quoted cell that spans lines moves the count on.
parse_g5_csv must equal it exactly: the same table, bit for bit, or the same
error class and message.
"""

import csv
import math

import numpy as np

from spatialcpf.errors import DataError, RowParseError, SchemaError
from spatialcpf.geodesy import itm_in_range
from spatialcpf.ingest import ELEMENTS, SampleTable, _column_index, _parse_concentration


def parse(path, bdl_policy="half_dl") -> SampleTable:
    """The table the row loop parses from the file at path."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return row_loop(csv.reader(fh), path, bdl_policy)


def _read_header(reader, path) -> tuple[list[str], dict[str, int]]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"empty file: {path}")
    return header, _column_index(header, path)


def _concentration(cell: str, element: str, bdl_policy: str) -> float:
    """The cell's concentration, 0.0 for a negative zero; ValueError for a
    bad cell or a negative value."""
    value = _parse_concentration(cell, element, bdl_policy)
    if value < 0:
        raise ValueError(f"negative concentration for {element}: {cell.strip()!r}")
    return 0.0 if value == 0 else value


def row_loop(reader, path, bdl_policy: str) -> SampleTable:
    """The table parsed row by row. The first bad row, in file order, raises
    an error naming its line and, within the row, its first bad cell."""
    header, idx = _read_header(reader, path)
    element_cols = [(element, idx[element]) for element in ELEMENTS]
    width = max(idx.values()) + 1

    site_ids, itm, concentrations = [], [], []
    seen_ids = set()
    for row in reader:
        line_number = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < width:
            raise RowParseError(
                path, line_number, f"row has {len(row)} cells, header has {len(header)}")
        site_id = row[idx["site_id"]].strip()
        if not site_id:
            raise RowParseError(path, line_number, "blank site_id")
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
            concentrations.append([_concentration(row[col], element, bdl_policy)
                                   for element, col in element_cols])
        except ValueError as exc:
            raise RowParseError(path, line_number, str(exc)) from None
        site_ids.append(site_id)
        itm.append((0.0 if easting == 0 else easting, 0.0 if northing == 0 else northing))

    if not site_ids:
        raise SchemaError(f"no records in {path}")
    return SampleTable(site_ids=tuple(site_ids), itm=np.array(itm, dtype=float),
                       concentrations=np.array(concentrations, dtype=float))
