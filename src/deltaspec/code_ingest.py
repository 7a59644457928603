"""Kernel source ingestion: file selection plus two-tier function extraction.

Tier 1 parses each candidate definition with pycparser against a typedef
prelude assembled from stub headers, which yields real parameter types. The
prelude is parsed once per index; each region is then parsed alone, starting
from the file scope (typedef and identifier names) the prelude left. Kernel
code is full of constructs a strict C99 parser rejects (macro-wrapped
definitions, in-body preprocessor blocks), so tier 2 falls back to a
brace-matching scanner that still recovers name, signature text and exact
spans. Unparseable residue that is not function-like is logged, never raised.

build_index can keep each file's functions in a content-keyed cache, so a
file unchanged since an earlier run, or shared by two versions, is not
parsed again. It also cuts each file into code chunks and caches the file's
token count and chunk cuts next to its functions, so such a file is not
tokenized or cut again either.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .chunk_mapper import (CHUNKER_VERSION, DEFAULT_CHUNK_SIZE,
                           DEFAULT_REDUNDANCY_RATIO, Cut, file_cuts)
from .errors import EmptyIndex, InvalidInputs, IoError, UnknownFunction
from .fsio import EntryStore, Record, read_text
from .tokenizer import count_tokens, is_token_start

if TYPE_CHECKING:
    from pycparser import CParser, c_ast

log = logging.getLogger(__name__)

# Part of every ingest cache key: bump it whenever _extract can return
# something different for the same file and prelude.
EXTRACTOR_VERSION = 1

TIER_SYNTAX = "syntax-tree"
TIER_FALLBACK = "brace-fallback"

DEFAULT_GLOBS = ("net/**/*.c", "net/**/*.h", "netinet/**/*.c", "netinet/**/*.h",
                 "sys/netinet/**/*.c", "sys/netinet/**/*.h")
DEFAULT_KEYWORDS = ("tcp", "ip")

_CONTROL_KEYWORDS = frozenset(
    {"if", "for", "while", "switch", "do", "else", "return", "sizeof"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MACRO_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")


@dataclass(frozen=True)
class SourceFile:
    path: str  # tree-relative, forward slashes
    version: str
    content: str
    line_count: int
    token_count: int | None = None  # counted by build_index

    @classmethod
    def load(cls, root: Path, relpath: str, version: str) -> "SourceFile":
        """The file's text; bytes that are not UTF-8 become U+FFFD."""
        text = read_text(root / relpath, errors="replace")
        return cls(path=relpath, version=version, content=text,
                   line_count=len(text.splitlines()))


class Span(NamedTuple):
    char_start: int
    char_end: int  # exclusive
    line_start: int  # 1-based, inclusive
    line_end: int


@dataclass(frozen=True)
class CodeFunction(Record):
    """Its JSON form also holds its ``fid``; a decode checks it, and that
    each start of the span is at most its end."""
    name: str
    signature: str  # whitespace-collapsed source text up to the open brace
    params: tuple[tuple[str, str], ...]  # (name, type) pairs; empty for tier 2
    span: Span
    doc_comment: str | None
    file: str
    token_count: int
    extraction_tier: str

    @property
    def fid(self) -> str:
        return f"{self.file}:{self.span.line_start}:{self.name}"

    @property
    def line_count(self) -> int:
        return self.span.line_end - self.span.line_start + 1

    def to_dict(self) -> dict:
        return {**super().to_dict(), "fid": self.fid}

    @classmethod
    def from_dict(cls, d: dict) -> "CodeFunction":
        fn = super().from_dict(d)
        s = fn.span
        if s.char_start > s.char_end or s.line_start > s.line_end:
            raise ValueError(f"span {list(s)} has a start past its end")
        if d.get("fid") != fn.fid:
            raise ValueError(f"fid {d.get('fid')!r} is not {fn.fid!r}")
        return fn


@dataclass
class CodebaseIndex:
    version: str
    files: list[SourceFile]
    functions: list[CodeFunction]
    # Each file's chunk cuts (chunk_mapper.file_cuts) by path.
    cuts: dict[str, list[Cut]] = field(default_factory=dict)

    @property
    def total_functions(self) -> int:
        return len(self.functions)

    @property
    def total_lines(self) -> int:
        return sum(f.line_count for f in self.functions)

    def by_fid(self) -> dict[str, CodeFunction]:
        return {f.fid: f for f in self.functions}


@dataclass(frozen=True)
class ExtractionStats(Record):
    version: str
    total_functions: int
    total_lines: int
    selected_functions: float
    selected_lines: float
    function_extraction_rate: float  # percent, one decimal
    line_extraction_rate: float

    @classmethod
    def from_raw(cls, version: str, total_functions: int, total_lines: int,
                 selected_functions: float, selected_lines: float) -> "ExtractionStats":
        if total_functions <= 0:
            raise EmptyIndex("no functions in index; extraction rate undefined")
        if total_lines <= 0:
            raise EmptyIndex("no function lines in index; extraction rate undefined")
        if selected_functions < 0 or selected_lines < 0:
            raise InvalidInputs("selected counts must be nonnegative")
        return cls(
            version=version,
            total_functions=total_functions,
            total_lines=total_lines,
            selected_functions=round(selected_functions, 1),
            selected_lines=round(selected_lines, 1),
            function_extraction_rate=round(100.0 * selected_functions / total_functions, 1),
            line_extraction_rate=round(100.0 * selected_lines / total_lines, 1),
        )


def select_protocol_sources(
    tree_root: str | Path,
    version: str,
    *,
    globs: Sequence[str] = DEFAULT_GLOBS,
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
) -> list[SourceFile]:
    """Pick protocol-relevant C files from a source tree.

    A file is kept when its tree-relative path matches one of the globs or
    its stem contains one of the keywords. Results are ordered by path so a
    rerun over the same tree is byte-for-byte identical.
    """
    root = Path(tree_root)
    if not root.is_dir():
        raise IoError(f"source tree root not readable: {root}")
    keep: set[str] = set()
    for pattern in globs:
        for hit in root.glob(pattern):
            if hit.is_file():
                keep.add(hit.relative_to(root).as_posix())
    lowered = [k.lower() for k in keywords]
    for hit in root.rglob("*"):
        if not hit.is_file() or hit.suffix not in (".c", ".h"):
            continue
        stem = hit.stem.lower()
        if any(k in stem for k in lowered):
            keep.add(hit.relative_to(root).as_posix())
    return [SourceFile.load(root, rel, version) for rel in sorted(keep)]


def mask_comments_and_strings(src: str) -> str:
    """Blank out comment and string interiors, preserving length and newlines.

    The scanner tracks brace depth on the masked text so offsets carry over
    to the original unchanged. Comment delimiters are blanked, quotes kept.
    A literal's body is read one escape pair at a time: a backslash-newline
    is a line splice, not literal content, and stays. A literal or block
    comment left open runs to the end of the text.
    """
    return _COMMENT_OR_LITERAL.sub(_blank_comment_or_literal, src)


_COMMENT_OR_LITERAL = re.compile(
    r"""//[^\n]*|/\*.*?(?:\*/|\Z)|(["'])((?:\\.?|(?!\1).)*)\1?""", re.DOTALL)
_ESCAPE_PAIR_OR_CHAR = re.compile(r"\\(.)|[^\n]", re.DOTALL)
_NOT_NEWLINE = re.compile(r"[^\n]")


def _blank_comment_or_literal(m: re.Match) -> str:
    quote, body = m[1], m[2]
    if quote is None:
        return _NOT_NEWLINE.sub(" ", m[0])
    closing = m[0][1 + len(body):]  # the quote, or "" for an open literal
    return quote + _ESCAPE_PAIR_OR_CHAR.sub(
        lambda e: e[0] if e[1] == "\n" else " " * len(e[0]), body) + closing


# A directive line and the lines its trailing backslashes continue.
_DIRECTIVE = re.compile(r"^[^\S\n]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)


def _mask_preprocessor(masked: str) -> str:
    """Additionally blank preprocessor lines (with continuations) for the
    depth tracker; tier-1 parsing still sees the original text."""
    return _DIRECTIVE.sub(lambda m: _NOT_NEWLINE.sub(" ", m[0]), masked)


@dataclass(frozen=True)
class _Candidate:
    decl_start: int
    open_brace: int
    close_brace: int  # index of '}'
    name: str
    paren_open: int
    paren_close: int


_BRACE = re.compile(r"[{}]")


def _match_brace(text: str, open_idx: int) -> int | None:
    depth = 0
    for m in _BRACE.finditer(text, open_idx):
        depth += 1 if m[0] == "{" else -1
        if depth == 0:
            return m.start()
    return None


def _scan_candidates(masked: str, path: str = "<text>") -> list[_Candidate]:
    """Propose top-level function-definition regions from masked text;
    ``path`` names the text in log lines. No two regions overlap."""
    candidates: list[_Candidate] = []
    depth = pos = 0
    last_region_end = -1
    while m := _BRACE.search(masked, pos):
        pos = m.end()
        if m[0] == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and (cand := _inspect_open_brace(
                masked, m.start(), last_region_end, path)):
            candidates.append(cand)
            last_region_end = cand.close_brace
            pos = last_region_end + 1
        else:
            depth += 1
    return candidates


def _inspect_open_brace(masked: str, brace_idx: int, prev_end: int,
                        path: str) -> _Candidate | None:
    # Walk back over whitespace; a function definition shows ')' just before
    # its body. Anything else (struct/enum/initializer) is rejected here.
    j = brace_idx - 1
    while j >= 0 and masked[j].isspace():
        j -= 1
    if j < 0 or masked[j] != ")":
        return None
    paren_close = j
    depth = 0
    # The parameter list opens after the previous region, if at all.
    while j > prev_end:
        if masked[j] == ")":
            depth += 1
        elif masked[j] == "(":
            depth -= 1
            if depth == 0:
                break
        j -= 1
    if j <= prev_end:
        log.debug("dropped the body at offset %d in %s: no parameter list "
                  "opens after the previous region", brace_idx, path)
        return None
    paren_open = j
    j -= 1
    while j >= 0 and masked[j].isspace():
        j -= 1
    ident_end = j + 1
    while j >= 0 and (masked[j].isalnum() or masked[j] == "_"):
        j -= 1
    name = masked[j + 1:ident_end]
    if not _IDENT_RE.match(name) or name in _CONTROL_KEYWORDS:
        return None
    # Declaration starts after the last ';' or '}' since the previous region.
    decl_start = max(masked.rfind(";", prev_end + 1, j + 1),
                     masked.rfind("}", prev_end + 1, j + 1), prev_end) + 1
    seg = masked[decl_start:j + 1]
    if "=" in seg:  # initializer, not a definition
        return None
    close = _match_brace(masked, brace_idx)
    if close is None:
        return None
    decl_start += len(seg) - len(seg.lstrip())
    return _Candidate(decl_start=decl_start, open_brace=brace_idx,
                      close_brace=close, name=name,
                      paren_open=paren_open, paren_close=paren_close)


def _newline_offsets(src: str) -> list[int]:
    return [m.start() for m in re.finditer("\n", src)]


def _line_of(newlines: list[int], idx: int) -> int:
    """1-based line of offset ``idx``, given the text's newline offsets."""
    return bisect_left(newlines, idx) + 1


def _doc_comment_before(src: str, newlines: list[int], decl_start: int) -> str | None:
    """Contiguous comment block directly above the declaration, if any."""
    k = bisect_left(newlines, decl_start)  # the declaration's 0-based line

    def start(j: int) -> int:
        return newlines[j - 1] + 1 if j else 0

    def line(j: int) -> str:
        return src[start(j):newlines[j]]

    # Only indentation may precede the declaration on its own line.
    if k == 0 or src[start(k):decl_start].strip():
        return None
    last = line(k - 1)
    if not last.strip():
        return None  # blank line breaks contiguity
    if last.rstrip().endswith("*/"):
        for j in range(k - 1, -1, -1):
            if "/*" in line(j):
                return src[start(j):newlines[k - 1]].strip()
        return None
    if last.lstrip().startswith("//"):
        j = k - 1
        while j > 0 and line(j - 1).lstrip().startswith("//"):
            j -= 1
        return src[start(j):newlines[k - 1]].strip()
    return None


def _param_pairs(funcdef: c_ast.FuncDef) -> tuple[tuple[str, str], ...]:
    from pycparser import c_ast, c_generator
    type_gen = c_generator.CGenerator()
    decl = funcdef.decl.type
    args = decl.args
    if args is None:
        return ()
    pairs: list[tuple[str, str]] = []
    for prm in args.params:
        if isinstance(prm, c_ast.Typename):
            rendered = type_gen.visit(prm)
            if rendered.strip() == "void":
                continue  # (void) means no parameters
            pairs.append(("", rendered.strip()))
        elif isinstance(prm, c_ast.Decl):
            wrapper = c_ast.Typename(name=None, quals=prm.quals,
                                     align=None, type=prm.type)
            pairs.append((prm.name or "", type_gen.visit(wrapper).strip()))
        elif isinstance(prm, c_ast.EllipsisParam):
            pairs.append(("", "..."))
    return tuple(pairs)


def _strip_declname(rendered: str, name: str) -> str:
    # CGenerator renders a Typename built from a Decl's type with the decl
    # name embedded ("struct sock *sk"); peel the name off the tail.
    if name and rendered.endswith(name):
        return rendered[:-len(name)].strip()
    return rendered.strip()


def _prelude_parser(prelude: str) -> CParser | None:
    """Mask and parse the stub prelude text once; None when it does not
    parse on its own, which sends every region to the fallback tier.

    pycparser is first imported here, so a run whose files are all served
    from the ingest cache never loads it."""
    import pycparser
    from pycparser.c_parser import ParseError

    class _PreludeParser(pycparser.CParser):
        """A CParser whose every parse starts from a copy of a prelude's
        file scope, so a region parses as if the prelude came first."""

        def __init__(self, file_scope: dict[str, bool]):
            self._file_scope = file_scope
            super().__init__()

        # parse() starts each run from a fresh ``[dict()]`` stack; seed it.
        @property
        def _scope_stack(self) -> list[dict[str, bool]]:
            return self._stack

        @_scope_stack.setter
        def _scope_stack(self, stack: list[dict[str, bool]]) -> None:
            self._stack = [dict(self._file_scope)] if stack == [{}] else stack

    prelude = _mask_preprocessor(mask_comments_and_strings(prelude))
    parser = pycparser.CParser()
    try:
        parser.parse(prelude, filename="<prelude>")
    except (ParseError, AssertionError):
        log.debug("stub prelude does not parse; tier 1 is off")
        return None
    return _PreludeParser(parser._scope_stack[0])


def _try_syntax_tier(region_src: str, parser: CParser | None,
                     name: str) -> c_ast.FuncDef | None:
    if parser is None:
        return None
    from pycparser import c_ast
    from pycparser.c_parser import ParseError
    # The parser does no line splicing of its own (translation phase 2).
    region_src = region_src.replace("\\\n", "")
    try:
        ast = parser.parse(region_src, filename="<region>")
    except (ParseError, AssertionError):
        return None
    for node in ast.ext:
        if isinstance(node, c_ast.FuncDef) and node.decl.name == name:
            return node
    return None


def _fallback_name(masked: str, cand: _Candidate) -> str:
    """Macro-wrapped definitions name the function in their first argument."""
    if _MACRO_NAME_RE.match(cand.name):
        inner = masked[cand.paren_open + 1:cand.paren_close]
        first = inner.split(",", 1)[0].strip()
        if _IDENT_RE.match(first):
            return first
    return cand.name


def extract_functions(
    source: SourceFile,
    *,
    stub_headers: str | Path | None = None,
) -> list[CodeFunction]:
    """Extract function definitions from one file, best tier first.

    ``stub_headers`` names a directory of headers (or one header file) whose
    typedefs stand in for the kernel's own so the strict parser can type the
    regions; without them most regions land in the fallback tier, which is
    functional but loses parameter types.
    """
    return _extract(source, _prelude_parser(_load_prelude(stub_headers)))


def _extract(source: SourceFile, parser: CParser | None) -> list[CodeFunction]:
    src = source.content
    newlines = _newline_offsets(src)
    # The strict parser accepts no comments at all, so tier 1 reads the
    # comment-blanked text (same length, same offsets). Preprocessor lines
    # stay visible to it on purpose: an in-body #ifdef is exactly the kind
    # of region that belongs to the fallback tier.
    comment_free = mask_comments_and_strings(src)
    masked = _mask_preprocessor(comment_free)
    out: list[CodeFunction] = []
    for cand in _scan_candidates(masked, source.path):
        region = src[cand.decl_start:cand.close_brace + 1]
        parse_region = comment_free[cand.decl_start:cand.close_brace + 1]
        funcdef = _try_syntax_tier(parse_region, parser, cand.name)
        if funcdef is not None:
            name = cand.name
            params = _param_pairs(funcdef)
            tier = TIER_SYNTAX
        else:
            name = _fallback_name(masked, cand)
            params = ()
            tier = TIER_FALLBACK
            log.debug("fallback tier for %s in %s", name, source.path)
        sig_src = src[cand.decl_start:cand.open_brace].strip()
        params = tuple((p[0], _strip_declname(p[1], p[0])) for p in params)
        out.append(CodeFunction(
            name=name,
            signature=" ".join(sig_src.split()),
            params=params,
            span=Span(cand.decl_start, cand.close_brace + 1,
                      _line_of(newlines, cand.decl_start),
                      _line_of(newlines, cand.close_brace)),
            doc_comment=_doc_comment_before(src, newlines, cand.decl_start),
            file=source.path,
            token_count=count_tokens(region),
            extraction_tier=tier,
        ))
    return out


def _load_prelude(stub_headers: str | Path | None) -> str:
    if stub_headers is None:
        return ""
    p = Path(stub_headers)
    if p.is_file():
        return read_text(p)
    if p.is_dir():
        return "\n".join(read_text(h) for h in sorted(p.glob("*.h")))
    raise IoError(f"stub header path not readable: {p}")


class _IngestCache:
    """Per source file, its extracted functions and its token count and
    chunk cuts: one EntryStore entry each; close() when done.

    The key ``k`` of a function entry digests everything extraction reads
    or depends on: the tree-relative path, the file text, the stub prelude,
    EXTRACTOR_VERSION and the pycparser version. A cut entry's key digests
    that key, the chunking settings and CHUNKER_VERSION, so a chunking
    change cuts again but parses nothing. The code version is part of
    neither (a function's fid is ``file:line:name``, and a chunk's origin
    is added when it is rebuilt), so a file that two versions share is
    extracted and cut once.
    """

    def __init__(self, root: Path, prelude: str):
        self._store = EntryStore(root, log, "ingest cache entry")
        self._salt = [hashlib.sha256(prelude.encode("utf-8")).hexdigest(),
                      EXTRACTOR_VERSION, _pycparser_version()]

    def key(self, source: SourceFile) -> str:
        canonical = json.dumps([source.path, source.content, *self._salt])
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, source: SourceFile) -> list[CodeFunction] | None:
        """The entry's functions; None when there is no entry, or when it is
        unreadable or fails validation (logged, never served)."""
        return self._store.get(self.key(source),
                               lambda entry: _entry_functions(entry, source),
                               f"re-extracting {source.path}:")

    def put(self, source: SourceFile, functions: list[CodeFunction]) -> None:
        self._put(self.key(source), source,
                  {"functions": [f.to_dict() for f in functions]})

    def _cut_key(self, source: SourceFile, chunking: tuple[int, float]) -> str:
        """``chunking`` is (chunk_size, redundancy_ratio)."""
        canonical = json.dumps([self.key(source), *chunking, CHUNKER_VERSION])
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get_cuts(self, source: SourceFile, chunking: tuple[int, float],
                 functions: list[CodeFunction],
                 ) -> tuple[int, list[Cut]] | None:
        """The entry's token count and cuts; None as for get()."""
        return self._store.get(self._cut_key(source, chunking),
                               lambda entry: _entry_cuts(entry, source,
                                                         functions),
                               f"re-cutting {source.path}:")

    def put_cuts(self, source: SourceFile, chunking: tuple[int, float],
                 found: tuple[int, list[Cut]]) -> None:
        tokens, cuts = found
        self._put(self._cut_key(source, chunking), source,
                  {"tokens": tokens, "cuts": cuts})

    def _put(self, key: str, source: SourceFile, entry: dict) -> None:
        try:
            self._store.put(key, entry)
        except OSError as exc:
            raise IoError(f"cannot write ingest cache entry {key} "
                          f"for {source.path}: {exc}") from exc

    def close(self) -> None:
        self._store.close()


@functools.cache
def _pycparser_version() -> str:
    """pycparser's ``__version__``, read from the ``__init__.py`` that
    find_spec locates without importing it. If that file cannot be read or
    holds no such line (``None[1]``, a TypeError), pycparser is imported."""
    try:
        spec = importlib.util.find_spec("pycparser")
        with open(spec.origin, encoding="utf-8") as fh:
            return re.search(r"^__version__\s*=\s*['\"]([^'\"]+)",
                             fh.read(), re.MULTILINE)[1]
    except (AttributeError, OSError, TypeError, UnicodeDecodeError):
        import pycparser
        return pycparser.__version__


def _entry_functions(entry: dict,
                     source: SourceFile) -> list[CodeFunction] | None:
    """A servable entry's functions each decode, hold no other key, belong
    to the file and span text inside it; anything else is None."""
    if not isinstance(entry.get("functions"), list):
        return None
    n_chars = len(source.content)
    n_lines = source.content.count("\n") + 1
    out: list[CodeFunction] = []
    for d in entry["functions"]:
        try:
            fn = CodeFunction.from_dict(d)
        except (KeyError, TypeError, ValueError):
            return None
        span = fn.span
        if not (len(d) == _FUNCTION_KEYS and fn.file == source.path
                and 0 <= span.char_start < span.char_end <= n_chars
                and 1 <= span.line_start <= span.line_end <= n_lines):
            return None
        out.append(fn)
    return out


# The keys of a function's JSON form: its fields and its fid.
_FUNCTION_KEYS = len(fields(CodeFunction)) + 1


def _entry_cuts(entry: dict, source: SourceFile,
                functions: list[CodeFunction],
                ) -> tuple[int, list[Cut]] | None:
    """A servable entry's token count is an int no larger than the text,
    its cuts are four ints each, and some exist exactly when the file
    holds a function. The first starts at token and character 0; each
    starts by the end of the one before and ends past it, in tokens and in
    characters; the last ends at the token count and at the end of the
    text; every other chunk starts and ends at a token start, as
    chunk_stream cuts. Anything else is None.

    The check reads no token offsets, so damage that keeps all of that true
    (a token index moved within its bounds, a token count off on a file
    with no cuts) is not caught."""
    text = source.content
    tokens, cuts = entry.get("tokens"), entry.get("cuts")
    if type(tokens) is not int or not 0 <= tokens <= len(text) \
            or not isinstance(cuts, list) or bool(cuts) != bool(functions):
        return None
    tok_end = char_end = 0
    for cut in cuts:
        if not (isinstance(cut, list) and len(cut) == 4
                and all(type(v) is int for v in cut)):
            return None
        if not (0 <= cut[0] <= tok_end < cut[1] <= tokens
                and 0 <= cut[2] <= char_end < cut[3] <= len(text)):
            return None
        if (cut[2] and not is_token_start(text, cut[2])) or (
                cut[3] < len(text) and not is_token_start(text, cut[3])):
            return None
        tok_end, char_end = cut[1], cut[3]
    if cuts and (tok_end, char_end) != (tokens, len(text)):
        return None
    return tokens, cuts


def build_index(
    tree_root: str | Path,
    version: str,
    *,
    globs: Sequence[str] = DEFAULT_GLOBS,
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
    stub_headers: str | Path | None = None,
    cache_dir: str | Path | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    redundancy_ratio: float = DEFAULT_REDUNDANCY_RATIO,
) -> CodebaseIndex:
    """Select a tree's protocol sources, extract their functions, count
    their tokens and cut each file into code chunks (file_cuts).

    With ``cache_dir``, each file's functions, and its token count and cuts,
    are kept under ``cache_dir/ingest/`` (see _IngestCache). A file whose
    entries are valid is not parsed, tokenized or cut again; the stub
    prelude is parsed only when some file misses its functions.
    """
    files = select_protocol_sources(tree_root, version, globs=globs, keywords=keywords)
    prelude = _load_prelude(stub_headers)
    parser = functools.cache(functools.partial(_prelude_parser, prelude))
    cache = None if cache_dir is None else \
        _IngestCache(Path(cache_dir) / "ingest", prelude)
    chunking = (chunk_size, redundancy_ratio)
    index = CodebaseIndex(version=version, files=[], functions=[])
    try:
        for f in files:
            found = cache.get(f) if cache is not None else None
            if found is None:
                found = _extract(f, parser())
                if cache is not None:
                    cache.put(f, found)
            index.functions.extend(found)
            cut = cache.get_cuts(f, chunking, found) \
                if cache is not None else None
            if cut is None:
                cut = file_cuts(f.content, found, chunk_size=chunk_size,
                                redundancy_ratio=redundancy_ratio)
                if cache is not None:
                    cache.put_cuts(f, chunking, cut)
            tokens, index.cuts[f.path] = cut
            index.files.append(replace(f, token_count=tokens))
    finally:
        if cache is not None:
            cache.close()
    return index


def stale_fid(fid: str, version: str) -> UnknownFunction:
    """A graph built before the last ingest-code names ``fid``."""
    return UnknownFunction(f"{fid} is not in the function index of "
                           f"{version}; rerun build-graph")


def compute_extraction_stats(
    index: CodebaseIndex,
    selected: Mapping[object, Iterable[str]],
) -> ExtractionStats:
    """Corpus means over per-RFC selections, as extraction rates.

    ``selected`` maps each RFC (any hashable key) to the fids retrieval
    chose for it; each must be in the index, else UnknownFunction.
    """
    if index.total_functions == 0:
        raise EmptyIndex(f"index {index.version} has no functions")
    if not selected:
        raise InvalidInputs("no per-RFC selections given")
    lookup = index.by_fid()
    counts: list[int] = []
    lines: list[int] = []
    for _, chosen in sorted(selected.items(), key=lambda kv: str(kv[0])):
        try:
            resolved = [lookup[fid] for fid in chosen]
        except KeyError as exc:
            raise stale_fid(exc.args[0], index.version) from None
        counts.append(len(resolved))
        lines.append(sum(f.line_count for f in resolved))
    sf = sum(counts) / len(counts)
    sl = sum(lines) / len(lines)
    return ExtractionStats.from_raw(index.version, index.total_functions,
                                    index.total_lines, sf, sl)
