"""One text-file entry point for every artifact reader and writer."""

from __future__ import annotations

from contextlib import nullcontext


def open_text(path_or_file, mode: str = "r"):
    """Context manager over a path (opened with LF newlines on write) or an open file object."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode, newline="\n" if "w" in mode else None)
    return nullcontext(path_or_file)
