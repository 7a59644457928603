"""JSON on disk: the record codec, the workdir artifacts the stages hand
each other, and the entry store both caches keep."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import logging
import os
import tempfile
from pathlib import Path
from types import NoneType, UnionType
from typing import (Any, BinaryIO, Callable, Iterator, TypeVar,
                    get_args, get_origin, get_type_hints)

from .errors import InvalidRecord, MalformedDocument, MissingArtifact

T = TypeVar("T")
R = TypeVar("R", bound="Record")

# What a from_dict raises on a record of the wrong shape.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)
# What a decode or a record's own checks raise on a value they reject.
_VALUE_ERRORS = (ValueError, InvalidRecord, MalformedDocument)
# The JSON types a scalar field takes: an int is a float, a bool no int.
_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,),
                 bool: (bool,), NoneType: (NoneType,)}


class Record:
    """A dataclass whose JSON form is an object of its fields by name.

    The annotations give each field's JSON form: a nested record is an
    object, as is a ``dict[str, X]``; a tuple, list, frozenset (written
    sorted) or NamedTuple is an array; a scalar (``int``, ``float``,
    ``str``, ``bool``, ``X | None``) is itself. A decode checks every value
    it reaches: a scalar takes only its JSON type (an int is a float, a bool
    no int), a fixed-length tuple or NamedTuple only an array of its length.
    A missing key takes the field's default, else KeyError; an unknown key is
    ignored. A wrong type is a TypeError, a wrong length a ValueError, and
    each names the path to the value (``sections[0].body[2]``); a record's
    own checks speak for themselves. A record nested in another is encoded
    and decoded through its own to_dict and from_dict, where it has them.
    Each annotation's encode and decode are closures, built once on first
    use and cached.
    """

    def to_dict(self) -> dict:
        return _record(type(self))[0](self)

    @classmethod
    def from_dict(cls: type[R], d: dict) -> R:
        return _record(cls)[1](d)


_DECODE_ERRORS = (KeyError, TypeError, ValueError)
_MISSING = object()


def _mismatch(kind: type[Exception], at: str, reason: str) -> Exception:
    """A codec error: ``reason`` at the path ``at`` ("" for the value
    itself); a KeyError's message is the path of the missing key."""
    exc = kind(at if kind is KeyError else f"{at}: {reason}" if at else reason)
    exc.at, exc.reason = at, reason
    return exc


def _within(exc: Exception, step: str) -> Exception:
    """A codec error one step further out (a key or ``[i]``); any other
    error as it is."""
    at = getattr(exc, "at", None)
    if at is None:
        return exc
    return _mismatch(type(exc), step + (at if not at or at[0] == "["
                                        else "." + at), exc.reason)


def _expected(value: Any, what: str) -> Exception:
    """A TypeError: ``value`` is not ``what``; a KeyError when the value is
    missing. Each decode's first check raises through it, so a missing
    required key is a KeyError whatever decodes its value."""
    if value is _MISSING:
        return _mismatch(KeyError, "", "")
    return _mismatch(TypeError, "",
                     f"expected {what}, got {type(value).__name__}")


@functools.cache
def _record(cls: type) -> tuple[Callable, Callable]:
    """(encode, decode) of a record by its fields, whatever its own
    to_dict and from_dict. The decode reads the fields in order and passes
    their values to the class by position."""
    hints = get_type_hints(cls)
    # Each field's default is a factory, or MISSING where it has none.
    fields = [(f.name, *_codec(hints[f.name]),
               f.default_factory if f.default is dataclasses.MISSING
               else lambda default=f.default: default)
              for f in dataclasses.fields(cls)]

    def encode(record: Any) -> dict:
        return {name: getattr(record, name) if enc is None
                else enc(getattr(record, name)) for name, enc, _, _ in fields}

    def decode(value: Any) -> Any:
        if not isinstance(value, dict):
            raise _expected(value, "an object")
        args = []
        try:
            for name, _, dec, default in fields:
                item = value.get(name, _MISSING)
                args.append(default() if item is _MISSING
                            and default is not dataclasses.MISSING
                            else dec(item))
        except _DECODE_ERRORS as exc:
            raise _within(exc, name) from None
        return cls(*args)

    return encode, decode


@functools.cache
def _codec(annotation: Any) -> tuple[Callable | None, Callable]:
    """(encode, decode) of a field's values; encode None writes a value as
    it is. A fixed-length array's, an array's or an object's decode names
    the index or key of a value that fails."""
    if isinstance(annotation, type) and issubclass(annotation, Record):
        if {"to_dict", "from_dict"} & vars(annotation).keys():
            return (lambda r: r.to_dict()), annotation.from_dict
        return _record(annotation)
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation in _SCALAR_TYPES or isinstance(annotation, UnionType):
        accepted = frozenset(t for a in args or (annotation,)
                             for t in _SCALAR_TYPES[a])
        name = getattr(annotation, "__name__", str(annotation))

        def decode_scalar(value: Any) -> Any:
            if type(value) not in accepted:
                raise _expected(value, name)
            return value

        return None, decode_scalar
    if isinstance(annotation, type) and issubclass(annotation, tuple):
        hints = get_type_hints(annotation)  # a NamedTuple
        return _fixed([hints[f] for f in annotation._fields],
                      functools.partial(tuple.__new__, annotation))
    if origin is tuple and args[-1:] != (...,):
        return _fixed(args, tuple)
    if origin is dict and args[0] is str:
        enc, dec = _codec(args[1])

        def decode_object(value: Any) -> dict:
            if not isinstance(value, dict):
                raise _expected(value, "an object")
            out = {}
            try:
                for key, item in value.items():
                    out[key] = dec(item)
            except _DECODE_ERRORS as exc:
                raise _within(exc, key) from None
            return out

        return (enc and (lambda value: {k: enc(v) for k, v in value.items()}),
                decode_object)
    if origin not in (tuple, list, frozenset):
        raise TypeError(f"no JSON codec for {annotation!r}")
    enc, dec = _codec(args[0])
    write = sorted if origin is frozenset else list

    def decode_array(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise _expected(value, "an array")
        out = []
        try:
            for item in value:
                out.append(dec(item))
        except _DECODE_ERRORS as exc:  # at the item after those in out
            raise _within(exc, f"[{len(out)}]") from None
        return origin(out)

    return (write if enc is None else lambda value: write(map(enc, value)),
            decode_array)


def _fixed(args: Any, make: Callable) -> tuple[Callable, Callable]:
    """(encode, decode) of an array of one value of each annotation in
    ``args``, made into a value by ``make``."""
    encs, decs = zip(*map(_codec, args))

    def decode(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise _expected(value, "an array")
        if len(value) != len(decs):
            raise _mismatch(ValueError, "", f"expected an array of "
                            f"{len(decs)}, got {len(value)}")
        out = []
        try:
            for dec, item in zip(decs, value):
                out.append(dec(item))
        except _DECODE_ERRORS as exc:
            raise _within(exc, f"[{len(out)}]") from None
        return make(out)

    if not any(encs):
        return list, decode
    return (lambda value: [v if enc is None else enc(v)
                           for enc, v in zip(encs, value)]), decode


def write_whole(path: Path, text: str) -> None:
    """Write ``text`` (UTF-8) to a new sibling file that then replaces
    ``path``, so a reader finds the old bytes or the new ones, never part
    of them; on failure the sibling is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:  # mode 0o666 & ~umask
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_json(path: Path, payload: object) -> None:
    write_whole(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    write_whole(path, "\n".join(lines) + ("\n" if lines else ""))


def _reason(exc: Exception) -> str:
    if isinstance(exc, (OSError, *_VALUE_ERRORS)):
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
    except (OSError, *_VALUE_ERRORS, *_SHAPE_ERRORS) as exc:
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
            except (*_VALUE_ERRORS, *_SHAPE_ERRORS) as exc:
                raise ValueError(f"line {number}: {_reason(exc)}") from exc
            raise ValueError(f"line {number} is not a JSON object")
        return rows


class EntryStore:
    """JSON entries keyed by a 64-hex digest ``k``, kept as lines
    ``<k> <json>\\n`` in append-only logs ``<root>/*.log``; every entry
    holds its own key as "key".

    Each store appends to one log of its own, created on its first put
    under a name no other writer takes, so lines of concurrent writers
    never interleave. Every log under the root is read once, on the first
    get, into an index from key to raw lines; a line is parsed only when
    it is served.

    A key with no line is a silent miss. A line that is torn (a writer was
    killed mid-append), that does not parse, whose body holds another key,
    or that ``decode`` returns None for is never served. A key's lines are
    tried in log-name order and the first that passes is served; when none
    does, the miss is logged as a warning, "<action> corrupt <what> <k>".
    A put replaces the key's lines in this store's index.
    """

    def __init__(self, root: str | Path, log: logging.Logger, what: str):
        self._root = Path(root)
        self._log = log
        self._what = what
        self._index: dict[bytes, list[bytes]] | None = None
        self._out: BinaryIO | None = None  # this store's own log

    def get(self, key: str, decode: Callable[[dict], T | None],
            action: str) -> T | None:
        """``decode`` of the entry under ``key``, or None on a miss."""
        if self._index is None:
            self._index = self._read_logs()
        lines = self._index.get(key.encode("ascii"))
        if not lines:
            return None
        for line in lines:
            if not line.endswith(b"\n") or line[64:65] != b" ":
                continue
            try:
                # JSONDecodeError and UnicodeDecodeError are ValueErrors.
                entry = json.loads(line[65:])
            except ValueError:
                continue
            if isinstance(entry, dict) and entry.get("key") == key:
                found = decode(entry)
                if found is not None:
                    return found
        self._log.warning("%s corrupt %s %s", action, self._what, key)
        return None

    def put(self, key: str, entry: dict) -> None:
        """Append ``entry`` under ``key`` to this store's log; OSError if
        it cannot be written."""
        line = b"%s %s\n" % (key.encode("ascii"), json.dumps(
            {**entry, "key": key}, sort_keys=True).encode("utf-8"))
        if self._out is None:
            self._root.mkdir(parents=True, exist_ok=True)
            fd, _ = tempfile.mkstemp(suffix=".log", prefix="", dir=self._root)
            try:
                os.fchmod(fd, 0o644)  # mkstemp creates 0600
            except OSError:
                os.close(fd)
                raise
            self._out = os.fdopen(fd, "ab")
        try:
            self._out.write(line)
            self._out.flush()
        except OSError:
            # The next line would extend a partial one: start a new log.
            out, self._out = self._out, None
            with contextlib.suppress(OSError):
                out.close()
            raise
        if self._index is not None:
            self._index[line[:64]] = [line]

    def close(self) -> None:
        """Close this store's log and drop the index; a later get reads
        the logs again and a later put starts a new log."""
        if self._out is not None:
            self._out.close()
            self._out = None
        self._index = None

    def _read_logs(self) -> dict[bytes, list[bytes]]:
        try:
            names = sorted(n for n in os.listdir(self._root)
                           if n.endswith(".log"))
        except FileNotFoundError:
            return {}
        except OSError as exc:
            self._log.warning("unreadable %s store %s: %s", self._what,
                              self._root, exc)
            return {}
        index: dict[bytes, list[bytes]] = {}
        for name in names:
            try:
                with open(self._root / name, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                self._log.warning("unreadable %s log %s: %s", self._what,
                                  name, exc)
                continue
            # Each line keeps its newline; a torn last line has none.
            for line in data.splitlines(keepends=True):
                index.setdefault(line[:64], []).append(line)
        return index
