"""CSV ingestion of geochemical soil-sample tables and feature standardization.

The input is a comma-delimited UTF-8 file with one header row. Each data row
carries a site identifier, planar ITM coordinates in meters within
geodesy.EASTING_RANGE and NORTHING_RANGE, and concentrations in mg/kg for
the 15 elements in ELEMENTS. Values prefixed with "<" mark measurements
below the detection limit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
    against DEFAULT_ALIASES.
    """
    if bdl_policy not in ("half_dl", "reject"):
        raise ValueError(f"unknown bdl_policy: {bdl_policy}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _parse_rows(csv.reader(fh), path, bdl_policy)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _parse_rows(reader, path, bdl_policy: str) -> SampleTable:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"empty file: {path}")
    idx = _column_index(header, path)
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
