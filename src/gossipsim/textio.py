"""One text-file writer for every artifact."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, Sequence

import numpy as np


def write_rows(path_or_file, header: str, rows: Iterable[Sequence], sep: str = ",") -> None:
    """Write `header`, then each row's cells joined by `sep`, every line LF-terminated.

    Cells print as: None -> empty, bool -> 0/1, float -> repr(float(x)), else str(x).
    A path is opened with LF newlines; an open file object is written as is.
    """
    is_path = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    with open(path_or_file, "w", newline="\n") if is_path else nullcontext(path_or_file) as f:
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
