"""The pipeline's file access: read_csv, the one CSV reader, and
atomic_open, which writes a file whole or not at all."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from .errors import RowParseError, SchemaError, SpatialCpfError

# Rows the chunked run reads at a time, which bounds the text it holds.
CHUNK_ROWS = 256


def _chunks(reader, rows: int):
    """(line, rows) of the given number of rows at a time, empty lines left
    out; line is reader.line_num after the last of the rows."""
    while chunk := list(islice(reader, rows)):
        if chunk := list(filter(None, chunk)):  # csv.reader gives [] for an empty line
            yield reader.line_num, chunk


def read_csv(path, parse):
    """parse(header, chunks) of the UTF-8 CSV file at path, a leading
    byte-order mark skipped (Excel's "CSV UTF-8" writes one): header is its
    first row (None if empty) and chunks yields _chunks of CHUNK_ROWS rows,
    so parse checks each rule once per chunk over whole columns. If that
    raises, the error is dropped and parse runs again on one row a chunk,
    whose error, the first bad row's in file order, is raised. Text that is
    not UTF-8 raises SchemaError, a line csv cannot read RowParseError."""
    for rows_per_chunk in (CHUNK_ROWS, 1):
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                return parse(next(reader, None), _chunks(reader, rows_per_chunk))
            except UnicodeDecodeError as exc:
                error = SchemaError(f"{path} is not UTF-8 text: {exc.reason}")
            except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
                error = RowParseError(path, reader.line_num, str(exc))
            except (SpatialCpfError, ValueError) as exc:
                error = exc
    raise error


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write to a temp file beside path and move it onto path on success.

    If the body raises, the temp file is removed and whatever was at path
    before is left as it was, so a failed write never leaves a truncated
    file. The parent directory is created if missing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
