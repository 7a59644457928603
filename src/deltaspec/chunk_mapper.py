"""Redundancy-aware chunking and the chunk/function map.

The chunker cuts a token stream into windows of ``chunk_size`` tokens with a
trailing redundancy region. A cut prefers the latest primary boundary inside
[nominal_end, nominal_end + redundancy], falls back to the latest secondary
boundary there, and otherwise cuts at the nominal end. Every chunk after the
first starts ``redundancy`` tokens before the previous cut, so consecutive
chunks overlap and no boundary-straddling construct is lost to either side.

A token stream is two parallel offset lists, token starts and token ends,
over one text (``tokenizer.token_offsets``). A chunk's text runs from its
first token's start to the next chunk's cut, and a chunk remembers the
absolute character offset of that text, which is what lets
``reconstruct_function`` stitch a function that crosses chunk boundaries
back together byte-for-byte.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InvalidConfig, SpanMismatch, UnknownFunction
from .fsio import Record
from .tokenizer import token_offsets

if TYPE_CHECKING:
    from .code_ingest import CodeFunction

DEFAULT_CHUNK_SIZE = 500
DEFAULT_REDUNDANCY_RATIO = 0.10

# Part of every ingest cache cut entry key: bump it whenever the code chunks
# of a file can come out different for the same text, functions and chunking
# settings.
CHUNKER_VERSION = 1

# (starts, ends): each token's [start, end) character span in one text.
Offsets = tuple[Sequence[int], Sequence[int]]
# A chunk's [tok_start, tok_end, char_start, char_end) in its stream: all of
# it that chunk_stream decides. Its text, index and id follow from the
# stream's text and origin.
Cut = Sequence[int]

# At most one match per punctuation token (a maximal [^\w\s]+ run): from its
# first ';' or '}' to its end, or its last character if that ends a sentence;
# word tokens hold none of these. A leading character set scans fast.
_STATEMENT_END_RE = re.compile(r"[;}][^\w\s]*")
_SENTENCE_END_RE = re.compile(r"[.!?](?![^\w\s])")


@dataclass(frozen=True)
class Chunk(Record):
    id: str
    origin: str  # "rfc:793:3.2" or "code:v6.9:net/ipv4/tcp.c"
    index: int
    span: tuple[int, int]  # [start, end) in token indices of the stream
    text: str
    overlap_prev: int  # tokens shared with the previous chunk
    char_start: int  # absolute offset of text[0] in the source


def _chunk_id(origin: str, index: int, text: str) -> str:
    # A lone surrogate, which no decoded file holds, still gets an id.
    digest = hashlib.sha256(
        text.encode("utf-8", "surrogatepass")).hexdigest()[:16]
    return hashlib.sha256(f"{origin}#{index}#{digest}".encode()).hexdigest()[:16]


def cuts_of(chunks: Iterable[Chunk]) -> list[Cut]:
    return [[c.span[0], c.span[1], c.char_start, c.char_start + len(c.text)]
            for c in chunks]


def chunks_from_cuts(origin: str, text: str,
                     cuts: Iterable[Cut]) -> list[Chunk]:
    """The chunks chunk_stream cut from ``text`` under ``origin``, rebuilt
    from their cuts without tokenizing the text again."""
    chunks: list[Chunk] = []
    for index, (tok_start, tok_end, char_start, char_end) in enumerate(cuts):
        chunk_text = text[char_start:char_end]
        chunks.append(Chunk(
            id=_chunk_id(origin, index, chunk_text),
            origin=origin,
            index=index,
            span=(tok_start, tok_end),
            text=chunk_text,
            overlap_prev=chunks[-1].span[1] - tok_start if chunks else 0,
            char_start=char_start,
        ))
    return chunks


def _coerce_tokens(tokens: Offsets | Sequence[str], source_text: str | None,
                   ) -> tuple[Sequence[int], str]:
    """Token starts and their text; plain strings stand for their
    space-joined text."""
    if tokens and isinstance(tokens[0], str):
        starts = accumulate((len(t) + 1 for t in tokens[:-1]), initial=0)
        return list(starts), " ".join(tokens)  # type: ignore[arg-type]
    starts = tokens[0] if tokens else ()
    if source_text is None and starts:
        raise InvalidConfig("token offsets require source_text")
    return starts, source_text or ""


def _latest_in_window(sorted_bounds: Sequence[int], lo: int, hi: int) -> int | None:
    """Largest boundary b with lo <= b <= hi, else None."""
    idx = bisect_left(sorted_bounds, hi + 1) - 1
    if idx >= 0 and sorted_bounds[idx] >= lo:
        return sorted_bounds[idx]
    return None


def chunk_stream(
    tokens: Offsets | Sequence[str],
    *,
    origin: str = "stream",
    source_text: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    redundancy_ratio: float = DEFAULT_REDUNDANCY_RATIO,
    boundaries: Iterable[int] = (),
    fallback_boundaries: Iterable[int] = (),
) -> list[Chunk]:
    """Cut a token stream into overlapping chunks.

    ``tokens`` is either ``(starts, ends)`` offsets into ``source_text`` or a
    list of strings, which stand for their space-joined text; each string
    must then be one token under the tokenizer's rule, because rebuilding a
    span that has no character offsets re-tokenizes that text. ``boundaries``
    and ``fallback_boundaries`` are token indices at which a cut is clean
    (for code: function ends, then statement ends; for prose: sentence
    ends). Spans always cover the stream; each non-first chunk overlaps its
    predecessor by exactly ``floor(redundancy_ratio * chunk_size)`` tokens.
    """
    if chunk_size <= 0:
        raise InvalidConfig(f"chunk_size must be positive, got {chunk_size}")
    if not 0.0 <= redundancy_ratio <= 0.5:
        raise InvalidConfig(
            f"redundancy_ratio must be in [0, 0.5], got {redundancy_ratio}")
    starts, text = _coerce_tokens(tokens, source_text)
    n = len(starts)
    if n == 0:
        return []
    redundancy = int(redundancy_ratio * chunk_size)
    primary = sorted(set(b for b in boundaries if 0 < b <= n))
    secondary = sorted(set(b for b in fallback_boundaries if 0 < b <= n))

    chunks: list[Chunk] = []
    start = 0
    index = 0
    while True:
        nominal = start + chunk_size
        if nominal >= n:
            end = n
        else:
            hi = min(nominal + redundancy, n)
            cut = _latest_in_window(primary, nominal, hi)
            if cut is None:
                cut = _latest_in_window(secondary, nominal, hi)
            end = cut if cut is not None else nominal
        char_lo = starts[start] if index > 0 else 0
        char_hi = starts[end] if end < n else len(text)
        chunk_text = text[char_lo:char_hi]
        chunks.append(Chunk(
            id=_chunk_id(origin, index, chunk_text),
            origin=origin,
            index=index,
            span=(start, end),
            text=chunk_text,
            overlap_prev=0 if index == 0 else chunks[-1].span[1] - start,
            char_start=char_lo,
        ))
        if end >= n:
            break
        start = max(end - redundancy, 0)
        index += 1
    return chunks


def file_cuts(text: str, functions: Sequence[CodeFunction], *,
              chunk_size: int, redundancy_ratio: float,
              ) -> tuple[int, list[Cut]]:
    """A source file's token count and, when it holds a function, the cuts
    of its code chunks, from one pass of the tokenizer. Function ends are
    the clean cut points, then statement ends."""
    offsets = token_offsets(text)
    if not functions:
        return len(offsets[0]), []
    return len(offsets[0]), cuts_of(chunk_stream(
        offsets,
        source_text=text,
        chunk_size=chunk_size,
        redundancy_ratio=redundancy_ratio,
        boundaries=[s.tok_end for s in spans_for_functions(functions, offsets)],
        fallback_boundaries=statement_boundaries(text, offsets[0]),
    ))


def statement_boundaries(text: str, starts: Sequence[int]) -> list[int]:
    """Token indices just after ';' or '}' runs (clean cut points in code)."""
    return [bisect_right(starts, m.start())
            for m in _STATEMENT_END_RE.finditer(text)]


def sentence_boundaries(text: str, starts: Sequence[int]) -> list[int]:
    """Token indices just after sentence-ending punctuation runs."""
    return [bisect_right(starts, m.start())
            for m in _SENTENCE_END_RE.finditer(text)]


@dataclass(frozen=True)
class FunctionSpan:
    """A function's extent in token space, in char space, or in both."""

    fid: str
    tok_start: int | None = None
    tok_end: int | None = None  # exclusive
    char_start: int | None = None
    char_end: int | None = None  # exclusive


def spans_for_functions(functions: Sequence[CodeFunction],
                        offsets: Offsets) -> list[FunctionSpan]:
    """Convert extracted char spans to token spans over one file's stream."""
    starts, ends = offsets
    spans = []
    for f in functions:
        ts = bisect_left(starts, f.span.char_start)
        te = bisect_left(ends, f.span.char_end + 1)  # tokens fully inside
        spans.append(FunctionSpan(fid=f.fid, tok_start=ts, tok_end=te,
                                  char_start=f.span.char_start,
                                  char_end=f.span.char_end))
    return spans


@dataclass(frozen=True)
class MapLink:
    chunk_id: str
    fid: str
    tok_start: int | None = None  # the token range build_map cuts
    tok_end: int | None = None


@dataclass
class ChunkFunctionMap:
    """Each function's span and its links to chunks, in stream order."""

    function_to_chunks: dict[str, list[MapLink]]
    spans: dict[str, FunctionSpan]

    def links_by_chunk(self) -> dict[str, list[MapLink]]:
        """Each linked chunk's links, in function order."""
        out: dict[str, list[MapLink]] = {}
        for links in self.function_to_chunks.values():
            for link in links:
                out.setdefault(link.chunk_id, []).append(link)
        return out

    def validate(self) -> None:
        """Gap-free ordered coverage per function, in token space."""
        for fid, links in self.function_to_chunks.items():
            span = self.spans[fid]
            pos = span.tok_start
            for link in links:
                if link.tok_start > pos:
                    raise SpanMismatch(f"gap in coverage of {fid} at {pos}")
                pos = max(pos, link.tok_end)
            if pos < span.tok_end:
                raise SpanMismatch(f"{fid} not covered past token {pos}")


def build_map(chunks: Sequence[Chunk],
              spans: Iterable[FunctionSpan]) -> ChunkFunctionMap:
    """Link every function to each chunk its span intersects.

    Links carry the raw intersection in token space; because consecutive
    chunks overlap, a boundary-straddling function gets overlapping links,
    and reconstruction joins their chunks' texts without repeating the
    shared part. A span no chunk covers end-to-end is a caller bug and
    raises SpanMismatch.

    Chunk starts and ends must both increase, as they do within one
    ``chunk_stream`` result, so a function's chunks are found by bisection.
    """
    ordered = sorted(chunks, key=lambda c: c.span[0])
    chunk_ends = [c.span[1] for c in ordered]
    if any(a > b for a, b in zip(chunk_ends, chunk_ends[1:])):
        raise SpanMismatch("chunk spans must increase in start and end")
    fmap = ChunkFunctionMap(function_to_chunks={}, spans={})
    for span in spans:
        fmap.spans[span.fid] = span
        links: list[MapLink] = []
        covered = span.tok_start
        # Earlier chunks end at or before tok_start; stop at the first chunk
        # that starts at or after tok_end.
        for k in range(bisect_right(chunk_ends, span.tok_start), len(ordered)):
            chunk = ordered[k]
            if chunk.span[0] >= span.tok_end:
                break
            lo = max(chunk.span[0], span.tok_start)
            hi = min(chunk.span[1], span.tok_end)
            if lo >= hi:
                continue
            link = MapLink(chunk.id, span.fid, lo, hi)
            links.append(link)
            if lo <= covered:
                covered = max(covered, hi)
        if not links or covered < span.tok_end:
            raise SpanMismatch(
                f"{span.fid} tokens [{span.tok_start},{span.tok_end}) "
                "not covered by the chunk stream")
        fmap.function_to_chunks[span.fid] = links
    return fmap


def map_by_chars(chunks: Iterable[Chunk],
                 spans: Iterable[tuple[str, FunctionSpan]],
                 ) -> ChunkFunctionMap:
    """build_map's links, without their token ranges, from char offsets: a
    span, given with its stream's origin, links to each chunk of that origin
    whose text, ``[char_start, char_start + len(text))``, overlaps its
    ``[char_start, char_end)``. A gap in its coverage raises SpanMismatch.
    """
    ordered = sorted(chunks, key=lambda c: (c.origin, c.char_start))
    origins = [c.origin for c in ordered]
    starts = [c.char_start for c in ordered]
    ends = [c.char_start + len(c.text) for c in ordered]
    fmap = ChunkFunctionMap(function_to_chunks={}, spans={})
    for origin, span in spans:
        a, b = bisect_left(origins, origin), bisect_right(origins, origin)
        lo, hi = span.char_start, span.char_end
        # Chunks overlap, so the first linked chunk is found by its end.
        i, j = bisect_right(ends, lo, a, b), bisect_left(starts, hi, a, b)
        # Each chunk starts by the end of the one before, the first by lo.
        if i == j or ends[j - 1] < hi or any(
                s > e for s, e in zip(starts[i:j], [lo, *ends[i:j]])):
            raise SpanMismatch(f"{span.fid}: its chunks do not cover "
                               f"characters [{span.char_start}, "
                               f"{span.char_end})")
        fmap.spans[span.fid] = span
        fmap.function_to_chunks[span.fid] = [MapLink(c.id, span.fid)
                                             for c in ordered[i:j]]
    return fmap


def reconstruct_function(fid: str, fmap: ChunkFunctionMap,
                         chunks: Mapping[str, Chunk]) -> str:
    """Reassemble a function's exact source text from its chunks.

    Joins the function's linked chunks, each chunk's text taken from where
    the join so far ends. A chunk's text runs from a token start (or the
    source's start) up to the next token's start (or the source's end), so
    the join does too: it tokenizes as the source does, and a span without
    character offsets is sliced at the join's own token offsets.
    """
    if fid not in fmap.function_to_chunks:
        raise UnknownFunction(fid)
    span, links = fmap.spans[fid], fmap.function_to_chunks[fid]
    first = chunks[links[0].chunk_id]
    text = first.text
    for link in links[1:]:
        chunk = chunks[link.chunk_id]
        text += chunk.text[first.char_start + len(text) - chunk.char_start:]
    if span.char_start is None or span.char_end is None:
        starts, ends = token_offsets(text)
        k = first.span[0]
        return text[starts[span.tok_start - k]:ends[span.tok_end - 1 - k]]
    return text[span.char_start - first.char_start:
                span.char_end - first.char_start]
