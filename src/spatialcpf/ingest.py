"""CSV ingestion of geochemical soil-sample tables and feature standardization.

The input is a comma-delimited UTF-8 file with one header row. Each data row
carries a site identifier, planar ITM coordinates in meters, and concentrations
in mg/kg for the 15 elements in ELEMENTS. Values prefixed with "<" mark
measurements below the detection limit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateColumnError, RowParseError, SchemaError

# Fixed alphabetical element order; serialization and feature-matrix columns
# always follow this sequence.
ELEMENTS = (
    "As", "Ba", "Bi", "Co", "Cr", "Cu", "Mn", "Mo",
    "Ni", "Pb", "Sb", "Sn", "U", "V", "Zn",
)

# Header names accepted (case-insensitively) for the coordinate/id columns.
DEFAULT_ALIASES = {
    "site_id": ("site_id", "sample_id", "sample", "site", "id", "sampleid"),
    "easting": ("easting", "easting_itm", "itm_e", "x_itm", "x"),
    "northing": ("northing", "northing_itm", "itm_n", "y_itm", "y"),
}


@dataclass(frozen=True)
class RawRecord:
    site_id: str
    easting: float
    northing: float
    concentrations: dict[str, float]


@dataclass(frozen=True)
class SampleTable:
    records: tuple[RawRecord, ...]
    element_order: tuple[str, ...] = ELEMENTS

    @property
    def n(self) -> int:
        return len(self.records)

    def site_ids(self) -> list[str]:
        return [r.site_id for r in self.records]

    def itm_coords(self) -> np.ndarray:
        """n x 2 array of (easting, northing)."""
        return np.array([(r.easting, r.northing) for r in self.records], dtype=float)


@dataclass(frozen=True)
class ScalingParams:
    center: np.ndarray
    scale: np.ndarray

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        return matrix * self.scale + self.center


def _resolve_column(header: list[str], wanted: str, aliases: dict) -> str:
    lower = {h.lower().strip(): h for h in header}
    for candidate in aliases.get(wanted, (wanted,)):
        if candidate.lower() in lower:
            return lower[candidate.lower()]
    raise SchemaError(f"missing required column: {wanted}")


def _parse_concentration(raw: str, element: str, line_number: int, bdl_policy: str) -> float:
    raw = raw.strip()
    if raw.startswith("<"):
        if bdl_policy == "reject":
            raise RowParseError(line_number, f"below-detection-limit value for {element}: {raw!r}")
        try:
            dl = float(raw[1:])
        except ValueError:
            raise RowParseError(line_number, f"unparseable detection limit for {element}: {raw!r}")
        return dl / 2.0
    try:
        value = float(raw)
    except ValueError:
        raise RowParseError(line_number, f"non-numeric concentration for {element}: {raw!r}")
    if not np.isfinite(value):
        raise RowParseError(line_number, f"non-finite concentration for {element}: {raw!r}")
    return value


def parse_g5_csv(path, bdl_policy: str = "half_dl", aliases: dict | None = None) -> SampleTable:
    """Parse a G5-style CSV into a SampleTable, preserving file row order.

    bdl_policy "half_dl" substitutes "<DL" markers with DL/2; "reject" raises
    a row-level error instead. Column names are matched case-insensitively,
    with extra aliases merged over DEFAULT_ALIASES.
    """
    if bdl_policy not in ("half_dl", "reject"):
        raise ValueError(f"unknown bdl_policy: {bdl_policy}")
    alias_map = dict(DEFAULT_ALIASES)
    if aliases:
        alias_map.update(aliases)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"empty file: {path}")

        element_cols = {}
        lower = {h.lower().strip(): i for i, h in enumerate(header)}
        for element in ELEMENTS:
            key = element.lower()
            if key in alias_map:
                found = None
                for candidate in alias_map[key]:
                    if candidate.lower() in lower:
                        found = lower[candidate.lower()]
                        break
                if found is None:
                    raise SchemaError(f"missing required column: {element}")
                element_cols[element] = found
            elif key in lower:
                element_cols[element] = lower[key]
            else:
                raise SchemaError(f"missing required column: {element}")
        idx = {name: lower[_resolve_column(header, name, alias_map).lower().strip()]
               for name in ("site_id", "easting", "northing")}
        width = max(*idx.values(), *element_cols.values()) + 1

        records = []
        seen_ids = set()
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                raise RowParseError(
                    line_number, f"row has {len(row)} cells, header has {len(header)}")
            site_id = row[idx["site_id"]].strip()
            if site_id in seen_ids:
                raise DataError(f"duplicate site_id: {site_id} (line {line_number})")
            seen_ids.add(site_id)
            try:
                easting = float(row[idx["easting"]])
                northing = float(row[idx["northing"]])
            except ValueError:
                raise RowParseError(line_number, "non-numeric coordinate")
            if not (np.isfinite(easting) and np.isfinite(northing)):
                raise RowParseError(line_number, "non-finite coordinate")
            conc = {
                element: _parse_concentration(row[col], element, line_number, bdl_policy)
                for element, col in element_cols.items()
            }
            records.append(RawRecord(site_id, easting, northing, conc))

    if not records:
        raise SchemaError(f"no records in {path}")
    return SampleTable(records=tuple(records))


def select_features(table: SampleTable) -> np.ndarray:
    """Return the n x 15 concentration matrix in the table's element order."""
    if table.n == 0:
        raise DataError("empty sample table")
    for element in table.element_order:
        if element not in table.records[0].concentrations:
            raise SchemaError(f"missing element column: {element}")
    return np.array(
        [[r.concentrations[e] for e in table.element_order] for r in table.records],
        dtype=float,
    )


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
