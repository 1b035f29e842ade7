"""One text-file entry point for every artifact reader and writer."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, Sequence

import numpy as np


def open_text(path_or_file, mode: str = "r"):
    """Context manager over a path (opened with LF newlines on write) or an open file object."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode, newline="\n" if "w" in mode else None)
    return nullcontext(path_or_file)


def write_rows(path_or_file, header: str, rows: Iterable[Sequence], sep: str = ",") -> None:
    """Write `header`, then each row's cells joined by `sep`, every line LF-terminated.

    Cells print as: None -> empty, bool -> 0/1, float -> repr(float(x)), else str(x).
    """
    with open_text(path_or_file, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(sep.join(map(_cell, row)) + "\n")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)
