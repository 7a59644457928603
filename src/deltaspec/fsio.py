"""JSON on disk: the workdir artifacts the stages hand each other, and the
entry store both caches keep."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from .errors import MissingArtifact

T = TypeVar("T")

# What a from_dict raises on a record of the wrong shape.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


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


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")


def _reason(exc: Exception) -> str:
    if isinstance(exc, (OSError, ValueError)):
        return str(exc)
    return f"unexpected shape ({type(exc).__name__}: {exc})"


@contextlib.contextmanager
def _reading(path: Path,
             hint: str = "; run the earlier stages first") -> Iterator[None]:
    """A missing ``path``, or one the block cannot read, decode or take
    apart, ends as MissingArtifact naming it."""
    if not path.is_file():
        raise MissingArtifact(f"cannot read {path}: no such file{hint}")
    try:
        yield
    except (OSError, ValueError, *_SHAPE_ERRORS) as exc:
        raise MissingArtifact(f"cannot read {path}: {_reason(exc)}") from exc


def read_text(path: Path, errors: str = "strict") -> str:
    """The UTF-8 text of an input file the config names; ``errors`` is
    the decoding error handler, as for ``bytes.decode``."""
    with _reading(path, hint=""):
        return path.read_text(encoding="utf-8", errors=errors)


def read_json(path: Path, decode: Callable[[Any], T] = lambda d: d) -> T:
    """``decode`` of the document at ``path``."""
    with _reading(path):
        return decode(json.loads(path.read_text(encoding="utf-8")))


def read_jsonl(path: Path,
               decode: Callable[[dict], T] = lambda d: d) -> list[T]:
    """``decode`` of each object line of ``path``; blank lines are skipped.
    A line that fails is named by its line number in the file."""
    with _reading(path):
        # The text is dropped once split, before the lines are decoded.
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if isinstance(row, dict):
                    rows.append(decode(row))
                    continue
            except (ValueError, *_SHAPE_ERRORS) as exc:
                raise ValueError(f"line {number}: {_reason(exc)}") from exc
            raise ValueError(f"line {number} is not a JSON object")
        return rows


class EntryStore:
    """JSON entries keyed by a hex digest ``k``, one file each at
    ``<root>/<k[:2]>/<k>.json``; every entry holds its own key as "key".

    A missing file is a silent miss. An unreadable entry, one holding
    another key, or one ``decode`` returns None for is logged as a
    warning, "<action> unreadable|corrupt <what> <k>.json", and misses.
    """

    def __init__(self, root: str | Path, log: logging.Logger, what: str,
                 indent: int | None = None):
        self._root = Path(root)
        self._log = log
        self._what = what
        self._indent = indent

    def get(self, key: str, decode: Callable[[dict], T | None],
            action: str) -> T | None:
        """``decode`` of the entry under ``key``, or None on a miss."""
        name = f"{key}.json"
        try:
            with open(f"{self._root}/{key[:2]}/{name}", "rb") as fh:
                # JSONDecodeError and UnicodeDecodeError are ValueErrors.
                entry = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._log.warning("%s unreadable %s %s", action, self._what, name)
            return None
        found = (decode(entry) if isinstance(entry, dict)
                 and entry.get("key") == key else None)
        if found is None:
            self._log.warning("%s corrupt %s %s", action, self._what, name)
        return found

    def put(self, key: str, entry: dict) -> None:
        """Store ``entry`` under ``key``; OSError if it cannot be written."""
        write_atomic(self._root / key[:2] / f"{key}.json",
                     json.dumps({**entry, "key": key}, sort_keys=True,
                                indent=self._indent))
