"""Cell-by-cell readers of the staged files, the oracle for
pipeline.read_labeling and pipeline._read_coords.

The csv.DictReader loop the pipeline ran before it read by columns: every
row's cells are parsed one at a time, in (line, key) order, and the first
bad cell raises DataError naming its line. Empty lines are skipped, a short
row's missing cells read as "" (restval), and a column named twice is read
from the last. The pipeline's readers must equal it exactly: the
same columns, bit for bit, or the same error class and message.
"""

import csv
import math

import numpy as np

from spatialcpf.errors import DataError

OUTLIER = -1


def read_columns(path, cells: dict) -> dict:
    """Parse CSV columns: cells maps each output key to its (column, parser),
    and every one of those columns must be present."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        header = reader.fieldnames or []
        missing = [col for col, _ in cells.values() if col not in header]
        if missing:
            raise DataError(f"{path}: missing column {missing[0]}")
        columns = {key: [] for key in cells}
        for row in reader:
            for key, (col, parse) in cells.items():
                try:
                    columns[key].append(parse(row[col]))
                except ValueError as exc:
                    raise DataError(f"{path}: line {reader.line_num}: "
                                    f"bad {col} value {row[col]!r}") from exc
    return columns


def checked(test):
    """A parser of float cells whose value must pass test."""
    def parse(cell: str) -> float:
        value = float(cell)
        if not test(value):
            raise ValueError(cell)
        return value
    return parse


def flag(cell: str) -> bool:
    if cell not in ("True", "False"):
        raise ValueError(cell)
    return cell == "True"


finite = checked(math.isfinite)

LABELING_CELLS = {
    "site_ids": ("site_id", str),
    "labels": ("cluster_label", int),
    "log_density": ("log_density", finite),
    "omega": ("omega", checked(lambda value: value >= 0)),
    "component_id": ("component_id", int),
    "anomaly_score": ("anomaly_score", lambda cell: finite(cell) if cell else math.nan),
    "iforest_flag": ("iforest_flag", flag),
}


def read_labeling(path) -> dict:
    """labeling.csv's columns, arrays but for site_ids; a cluster label or
    component id out of range for the row count raises DataError."""
    cols = read_columns(path, LABELING_CELLS)
    n = len(cols["site_ids"])
    lab = {key: values if key == "site_ids" else np.array(values)
           for key, values in cols.items()}
    for key, low in (("labels", OUTLIER), ("component_id", 0)):
        for row, value in enumerate(cols[key]):
            if not low <= value < n:
                raise DataError(f"{path}: row {row + 1}: {LABELING_CELLS[key][0]} "
                                f"{value} is outside [{low}, {n})")
    return lab


def read_coords(path) -> tuple[np.ndarray, list[str]]:
    """coords.csv's (latitude, longitude) rows and its site_id column."""
    cols = read_columns(path, {
        "site_ids": ("site_id", str),
        "lat": ("latitude", checked(lambda value: -90 <= value <= 90)),
        "lon": ("longitude", checked(lambda value: -180 <= value <= 180))})
    return np.column_stack([cols["lat"], cols["lon"]]), cols["site_ids"]
