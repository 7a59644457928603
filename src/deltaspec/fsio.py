"""JSON on disk: the record codec, the workdir artifacts the stages hand
each other, and the entry store both caches keep."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import logging
import os
import tempfile
from pathlib import Path
from types import NoneType, UnionType
from typing import (Any, BinaryIO, Callable, Iterable, Iterator, TypeVar,
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
    """

    def to_dict(self) -> dict:
        return _record_plan(type(self))[0](self)

    @classmethod
    def from_dict(cls: type[R], d: dict) -> R:
        return _record_plan(cls)[1](d)


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
    return _mismatch(TypeError, "",
                     f"expected {what}, got {type(value).__name__}")


def _locate(decs: Iterable[Callable], items: Iterable,
            keys: list[str] | None = None) -> None:
    """Decode each item again and raise the first error, named by the
    item's key, or by its index when there are no keys."""
    for i, (dec, item) in enumerate(zip(decs, items)):
        try:
            dec(item)
        except _DECODE_ERRORS as exc:
            raise _within(exc, f"[{i}]" if keys is None else keys[i]) from None


def _codec(annotation: Any) -> tuple[Callable | None, Callable]:
    """(encode, decode) of a field's values; encode None writes a value as
    it is. A scalar's decode has ``accepted``, the JSON types it takes."""
    if isinstance(annotation, type) and issubclass(annotation, Record):
        if {"to_dict", "from_dict"} & vars(annotation).keys():
            return (lambda r: r.to_dict()), annotation.from_dict
        return _record_plan(annotation)
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation in _SCALAR_TYPES or isinstance(annotation, UnionType):
        accepted = frozenset(t for a in args or (annotation,)
                             for t in _SCALAR_TYPES[a])
        name = getattr(annotation, "__name__", str(annotation))

        def check(value: Any) -> Any:
            if type(value) not in accepted:
                raise _expected(value, name)
            return value

        check.accepted = accepted
        return None, check
    if isinstance(annotation, type) and issubclass(annotation, tuple):
        hints = get_type_hints(annotation)  # a NamedTuple
        return _fixed([hints[f] for f in annotation._fields],
                      functools.partial(tuple.__new__, annotation))
    if origin is tuple and args[-1:] != (...,):
        return _fixed(args, tuple)
    enc, dec = _codec(args[1] if origin is dict else args[0])
    if origin is dict and args[0] is str:
        def decode_object(value: Any) -> dict:
            if not isinstance(value, dict):
                raise _expected(value, "an object")
            try:
                return {k: dec(v) for k, v in value.items()}
            except _DECODE_ERRORS:
                _locate(itertools.repeat(dec), value.values(), list(value))
                raise

        return (enc and (lambda value: {k: enc(v) for k, v in value.items()}),
                decode_object)
    if origin not in (tuple, list, frozenset):
        raise TypeError(f"no JSON codec for {annotation!r}")
    accepted = getattr(dec, "accepted", None)
    exact = getattr(dec, "exact", None)  # items of fixed scalar types
    write = sorted if origin is frozenset else list

    def decode_array(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise _expected(value, "an array")
        if not value or accepted is not None and all(
                map(accepted.__contains__, map(type, value))):
            return origin(value)
        if exact is not None and all(
                type(v) is list and tuple(map(type, v)) == exact
                for v in value):
            return origin(map(dec.make, value))
        try:
            return origin(map(dec, value))
        except _DECODE_ERRORS:
            _locate(itertools.repeat(dec), value)
            raise

    return (write if enc is None else lambda value: write(map(enc, value)),
            decode_array)


def _fixed(args: Any, make: Callable) -> tuple[Callable, Callable]:
    """(encode, decode) of an array of one value of each annotation in
    ``args``, made into a value by ``make``. When all are scalar the decode
    has ``exact``, their types, and ``make``."""
    encs, decs = zip(*map(_codec, args))
    exact = tuple(_SCALAR_TYPES.get(a, (None,))[-1] for a in args)

    def decode(value: Any) -> Any:
        if type(value) is list and tuple(map(type, value)) == exact:
            return make(value)
        if not isinstance(value, (list, tuple)):
            raise _expected(value, "an array")
        if len(value) != len(decs):
            raise _mismatch(ValueError, "", f"expected an array of "
                            f"{len(decs)}, got {len(value)}")
        try:
            return make([dec(v) for dec, v in zip(decs, value)])
        except _DECODE_ERRORS:
            _locate(decs, value)
            raise

    if None not in exact:
        decode.exact, decode.make = exact, make
    if not any(encs):
        return list, decode
    return (lambda value: [v if enc is None else enc(v)
                           for enc, v in zip(encs, value)]), decode


@functools.cache
def _record_plan(cls: type) -> tuple[Callable[[Any], dict],
                                     Callable[[Any], Any]]:
    hints = get_type_hints(cls)
    encoders, decoders = [], []
    for f in dataclasses.fields(cls):
        enc, dec = _codec(hints[f.name])
        encoders.append((f.name, enc))
        decoders.append((f.name, getattr(dec, "accepted", None), dec,
                         f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING))

    def encode(record: Any) -> dict:
        values, out = vars(record), {}
        for name, enc in encoders:
            out[name] = values[name] if enc is None else enc(values[name])
        return out

    def decode(d: Any) -> Any:
        if not isinstance(d, dict):
            raise _expected(d, "an object")
        kwargs = {}
        for name, accepted, dec, required in decoders:
            value = d.get(name, _MISSING)
            if value is _MISSING:
                if required:
                    raise _mismatch(KeyError, name, "")
                continue
            # A scalar that fits is not passed to dec: the common case.
            if accepted is None or type(value) not in accepted:
                try:
                    value = dec(value)
                except _DECODE_ERRORS as exc:
                    raise _within(exc, name) from None
            kwargs[name] = value
        return cls(**kwargs)

    return encode, decode


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
