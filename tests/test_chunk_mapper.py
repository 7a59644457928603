"""Tests for overlapping chunking and the chunk/function bidirectional map."""

import random

import pytest

from conftest import FIXTURES
from deltaspec.chunk_mapper import (
    Chunk,
    FunctionSpan,
    build_map,
    chunk_stream,
    map_by_chars,
    reconstruct_function,
    sentence_boundaries,
    spans_for_functions,
    statement_boundaries,
)
from deltaspec.code_ingest import SourceFile, extract_functions
from deltaspec.errors import InvalidConfig, SpanMismatch, UnknownFunction
from deltaspec.tokenizer import token_offsets

ANNOTATED = FIXTURES / "annotated" / "annotated.c"


def toks(n):
    return [f"t{i}" for i in range(n)]


# ----------------------------------------------------------------- chunking

def test_spans_without_boundaries_follow_size_and_overlap():
    chunks = chunk_stream(toks(1200), chunk_size=500, redundancy_ratio=0.1)
    assert [c.span for c in chunks] == [(0, 500), (450, 950), (900, 1200)]
    assert [c.overlap_prev for c in chunks] == [0, 50, 50]
    assert [c.index for c in chunks] == [0, 1, 2]


def test_primary_boundary_beats_later_fallback():
    chunks = chunk_stream(toks(100), chunk_size=50, redundancy_ratio=0.2,
                          boundaries=[57], fallback_boundaries=[53, 58])
    assert [c.span for c in chunks] == [(0, 57), (47, 97), (87, 100)]


def test_fallback_boundary_used_when_no_primary_in_window():
    chunks = chunk_stream(toks(100), chunk_size=50, redundancy_ratio=0.2,
                          fallback_boundaries=[53])
    assert [c.span for c in chunks] == [(0, 53), (43, 93), (83, 100)]


def test_boundary_outside_window_is_ignored():
    chunks = chunk_stream(toks(100), chunk_size=50, redundancy_ratio=0.2,
                          boundaries=[5, 61])
    assert [c.span for c in chunks] == [(0, 50), (40, 90), (80, 100)]


def test_bad_config_rejected():
    with pytest.raises(InvalidConfig):
        chunk_stream(toks(10), chunk_size=0)
    with pytest.raises(InvalidConfig):
        chunk_stream(toks(10), chunk_size=10, redundancy_ratio=-0.1)
    with pytest.raises(InvalidConfig):
        chunk_stream(toks(10), chunk_size=10, redundancy_ratio=0.51)


def test_coverage_and_overlap_hold_under_fuzz():
    rng = random.Random(6528)
    for _ in range(200):
        n = rng.randint(1, 400)
        size = rng.randint(1, 120)
        ratio = rng.choice([0.0, 0.05, 0.1, 0.25, 0.5])
        bounds = sorted(rng.sample(range(1, n + 1), min(n, rng.randint(0, 12))))
        chunks = chunk_stream(toks(n), chunk_size=size, redundancy_ratio=ratio,
                              boundaries=bounds)
        redundancy = int(ratio * size)
        assert chunks[0].span[0] == 0
        assert chunks[-1].span[1] == n
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.span[0] <= prev.span[1]  # no gaps
            assert cur.overlap_prev == prev.span[1] - cur.span[0]
            assert cur.overlap_prev <= redundancy


def test_empty_stream_gives_no_chunks():
    assert chunk_stream([], chunk_size=10) == []


def joined(words):
    """The space-joined text of ``words`` and its token starts."""
    text = " ".join(words)
    return text, token_offsets(text)[0]


def test_boundary_helpers():
    assert statement_boundaries(*joined(["x", "=", "1", ";", "y"])) == [4]
    assert statement_boundaries(*joined(["}", ";"])) == [1, 2]
    assert sentence_boundaries(*joined(["Hello", ".", "World", "!?"])) == [2, 4]
    assert sentence_boundaries(*joined(["v1", ".", "2"])) == [2]


def test_offsets_without_their_text_are_rejected():
    with pytest.raises(InvalidConfig):
        chunk_stream(([0, 2], [1, 3]), chunk_size=10)
    assert chunk_stream(([], []), chunk_size=10) == []


# ------------------------------------------------------------------ mapping

def annotated_fixture(chunk_size=80, redundancy_ratio=0.1):
    source = SourceFile.load(ANNOTATED.parent, ANNOTATED.name, "annotated")
    functions = extract_functions(source)
    offsets = token_offsets(source.content)
    spans = spans_for_functions(functions, offsets)
    chunks = chunk_stream(offsets, origin="annotated.c",
                          source_text=source.content,
                          chunk_size=chunk_size,
                          redundancy_ratio=redundancy_ratio,
                          boundaries=statement_boundaries(source.content,
                                                          offsets[0]))
    return source, functions, spans, chunks


@pytest.mark.parametrize("redundancy_ratio", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("chunk_size", [3, 7, 16, 80])
def test_reconstruction_returns_exact_source_text(chunk_size,
                                                  redundancy_ratio):
    source, functions, spans, chunks = annotated_fixture(chunk_size,
                                                         redundancy_ratio)
    fmap = build_map(chunks, spans)
    fmap.validate()
    # The stored records alone are enough to rebuild a function.
    store = {c.id: Chunk.from_dict(c.to_dict()) for c in chunks}
    for fn in functions:
        rebuilt = reconstruct_function(fn.fid, fmap, store)
        assert rebuilt == source.content[fn.span.char_start:fn.span.char_end]
    if chunk_size <= 16:
        assert max(map(len, fmap.function_to_chunks.values())) >= 3

    # Spans without character offsets run from their first token's start to
    # their last token's end, also where tokens touch, as in "foo(".
    starts, ends = token_offsets(source.content)
    assert any(e == s for e, s in zip(ends, starts[1:]))
    rng = random.Random(chunk_size)
    bare = [FunctionSpan(fid=s.fid, tok_start=s.tok_start, tok_end=s.tok_end)
            for s in spans]
    for j in range(40):
        a = rng.randrange(len(starts))
        bare.append(FunctionSpan(fid=f"r{j}", tok_start=a,
                                 tok_end=rng.randint(a + 1, len(starts))))
    bare.append(FunctionSpan(fid="all", tok_start=0, tok_end=len(starts)))
    fmap = build_map(chunks, bare)
    fmap.validate()
    for sp in bare:
        assert reconstruct_function(sp.fid, fmap, store) == \
            source.content[starts[sp.tok_start]:ends[sp.tok_end - 1]]


def test_map_by_chars_rejects_a_gap_in_coverage():
    _, _, spans, chunks = annotated_fixture(chunk_size=7)
    links = build_map(chunks, spans).function_to_chunks
    fid, linked = next((fid, l) for fid, l in links.items() if len(l) >= 3)
    gone = linked[1].chunk_id
    with pytest.raises(SpanMismatch, match=f"{fid}: its chunks do not cover"):
        map_by_chars([c for c in chunks if c.id != gone],
                     [("annotated.c", s) for s in spans if s.fid == fid])


def test_uncovered_span_is_rejected():
    chunks = chunk_stream(toks(10), chunk_size=10)
    with pytest.raises(SpanMismatch):
        build_map(chunks, [FunctionSpan(fid="f", tok_start=5, tok_end=15)])


def test_chunks_whose_ends_decrease_are_rejected():
    outer = chunk_stream(toks(10), chunk_size=10)[0]
    inner = Chunk(id="inner", origin="stream", index=1, span=(2, 5),
                  text="t2 t3 t4", overlap_prev=0, char_start=6)
    with pytest.raises(SpanMismatch):
        build_map([outer, inner], [FunctionSpan(fid="f", tok_start=3,
                                                tok_end=4)])


def test_validate_catches_tampered_links():
    _, _, spans, chunks = annotated_fixture()
    fmap = build_map(chunks, spans)
    fid = next(iter(fmap.function_to_chunks))
    fmap.function_to_chunks[fid] = []
    with pytest.raises(SpanMismatch):
        fmap.validate()


def test_unknown_function_raises():
    _, _, spans, chunks = annotated_fixture()
    fmap = build_map(chunks, spans)
    with pytest.raises(UnknownFunction):
        reconstruct_function("no/such.c:1:f", fmap, chunks)


def test_chunk_roundtrips_through_dict():
    chunks = chunk_stream(toks(30), chunk_size=10)
    for c in chunks:
        assert Chunk.from_dict(c.to_dict()) == c
