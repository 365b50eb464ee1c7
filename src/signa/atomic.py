"""Crash-safe artifact writes.

`open_atomic` writes into a sibling temp file and moves it over the target
only after the body finished and the data reached the disk.  A reader sees
the old file or the new one, never a truncated mix, and an error part way
through leaves the old file untouched.  Standard library only: the CLI
imports this before numpy loads.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager

from .errors import OutputError


def _replace_target(path: str):
    """(file to replace, its mode or None if new), or None to write in place.

    Symlinks are followed, so the file they name is replaced and the links
    stay.  A target that exists but is not a regular file reachable by name
    (a FIFO, /dev/stdout on a pipe or terminal) is written in place.
    """
    real = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return real, None
    if stat.S_ISREG(st.st_mode) and os.path.exists(real) and os.path.samestat(st, os.stat(real)):
        return real, stat.S_IMODE(st.st_mode)
    return None


@contextmanager
def open_atomic(path: str):
    """Text-mode (UTF-8) writer that replaces `path` in one step on success.

    A replaced file keeps its permission bits; its owner becomes the writer.
    An OSError while the file is opened, written or moved into place is
    raised as an OutputError that names `path`.
    """
    try:
        target = _replace_target(path)
        if target is None:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
            return
        real, mode = target
        tmp = f"{real}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, real)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_json(path: str, doc) -> None:
    """Write `doc` as indented, key-sorted JSON and a newline, atomically."""
    with open_atomic(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
