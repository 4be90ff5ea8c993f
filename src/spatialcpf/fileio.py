"""Atomic replacement of the files the pipeline writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
