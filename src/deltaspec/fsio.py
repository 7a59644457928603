"""Atomic file writes for the on-disk caches."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that a reader sees the old file or the
    new one whole, never a partial write.

    Each writer gets a private temp file in the target directory, so
    concurrent writers of one path each replace the file whole instead of
    interleaving into a shared one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        os.fchmod(fd, 0o644)  # mkstemp creates 0600
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
