"""Property tests for invariants other modules rely on."""

from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from deltaspec.chunk_mapper import (
    Chunk,
    ChunkFunctionMap,
    FunctionSpan,
    MapLink,
    build_map,
    chunk_stream,
    chunks_from_cuts,
    cuts_of,
    map_by_chars,
    sentence_boundaries,
    statement_boundaries,
)
from deltaspec.code_ingest import (
    SourceFile,
    _doc_comment_before,
    _entry_cuts,
    _line_of,
    _newline_offsets,
    mask_comments_and_strings,
)
from deltaspec.errors import ContractViolation, MalformedDocument, SpanMismatch
from deltaspec.llm_gateway import _compile, extract_json_payload, schema_error
from deltaspec.rfc_ingest import strip_boilerplate
from deltaspec.spec_evolution import ChainEdge, UpdateChainGraph
from deltaspec.tokenizer import is_token_start, token_offsets, token_texts

# Text biased toward the characters each scanner branches on.
_C_TEXT = st.text(alphabet=st.sampled_from(list('/*"\'\\\n{}; ax\t\r')) | st.characters(),
                  max_size=200)
_JSON_TEXT = st.text(alphabet=st.sampled_from(list('{}[]",:`\\ \n0aejnostu'))
                     | st.characters(), max_size=200)

_RFC_LINES = st.sampled_from([
    "1.  Introduction", "2.3.  Sequence Numbers", "Appendix A.  Examples",
    "   Body text that a reader keeps.", "", "   ", "\f",
    "Author                                                        [Page 4]",
    "RFC 793            Transmission Control Protocol       September 1981",
    "Table of Contents", "   1.  Introduction ........................ 2",
    "References", "2.  Normative References", "Authors' Addresses",
    "   Jane Doe, Example Corp.",
]) | st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=40)


@given(_JSON_TEXT)
@example('{"a": [1, 2}')
@example("```json\n{\"a\": \n```")
@settings(max_examples=150)
def test_extract_json_payload_raises_only_contract_violations(text):
    try:
        extract_json_payload(text)
    except ContractViolation:
        pass


@given(st.lists(_RFC_LINES, max_size=30), st.integers(min_value=0, max_value=30))
@settings(max_examples=150)
def test_strip_boilerplate_is_idempotent(lines, at):
    lines.insert(min(at, len(lines)), "3.  Protocol Behavior")
    try:
        once = strip_boilerplate("\n".join(lines))
    except MalformedDocument:
        assume(False)
    assert strip_boilerplate(once) == once


@given(_C_TEXT)
@example('x = "a\\\nb";\n')
@example("c = '\\\n';\n")
@settings(max_examples=150)
def test_masking_preserves_length_and_newlines(src):
    masked = mask_comments_and_strings(src)
    assert len(masked) == len(src)
    assert [i for i, ch in enumerate(masked) if ch == "\n"] == \
        [i for i, ch in enumerate(src) if ch == "\n"]


def naive_line_of(src: str, idx: int) -> int:
    return src.count("\n", 0, idx) + 1


def naive_doc_comment_before(src: str, decl_start: int) -> str | None:
    """Reference: split everything before the declaration into lines."""
    lines = src[:decl_start].split("\n")
    if lines and lines[-1].strip() == "":
        lines = lines[:-1]
    else:
        return None
    if not lines or not lines[-1].strip():
        return None
    last = lines[-1].rstrip()
    if last.endswith("*/"):
        block: list[str] = []
        for line in reversed(lines):
            block.append(line)
            if "/*" in line:
                return "\n".join(reversed(block)).strip()
        return None
    if last.lstrip().startswith("//"):
        block = []
        for line in reversed(lines):
            if line.lstrip().startswith("//"):
                block.append(line)
            else:
                break
        return "\n".join(reversed(block)).strip()
    return None


_SOURCE_LINES = st.sampled_from([
    "", " ", "\t", "\r", "/* one-line block */", "/*", " * middle", " */",
    "*/ trailing", "  /* indented */  ", "// line comment", "   // indented",
    "//", "int f(void)", "static u32 g(u32 x)", "{", "}", "    return 0;",
    "x = a / b * c; /* tail */", "y; // tail",
]) | st.text(alphabet=st.sampled_from(list("/* \t\rab;")), max_size=12)


@given(st.lists(_SOURCE_LINES, max_size=25), st.data())
@settings(max_examples=300)
def test_line_table_matches_naive_line_and_doc_lookup(lines, data):
    src = "\n".join(lines)
    newlines = _newline_offsets(src)
    for _ in range(5):
        idx = data.draw(st.integers(min_value=0, max_value=len(src)))
        assert _line_of(newlines, idx) == naive_line_of(src, idx)
        assert _doc_comment_before(src, newlines, idx) == \
            naive_doc_comment_before(src, idx)
    # Declarations in real files start at a line's first non-blank char.
    for j, line in enumerate(lines):
        start = sum(len(x) + 1 for x in lines[:j]) + len(line) - len(line.lstrip())
        assert _doc_comment_before(src, newlines, start) == \
            naive_doc_comment_before(src, start)


def path_memo_parents(graph: UpdateChainGraph) -> dict[int, int | None]:
    """Reference: each node's predecessor on the first chain that reaches
    it, as a walk over every root-to-leaf path with a memo would set it."""
    parents: dict[int, int | None] = {}
    for chain in graph.chains():
        for k, node in enumerate(chain):
            parents.setdefault(node, chain[k - 1] if k else None)
    return parents


@st.composite
def update_dags(draw):
    """A DAG of up to 8 RFCs whose numbers do not follow its topological
    order, so the walk's ascending-order rule is exercised."""
    numbers = draw(st.lists(st.integers(min_value=1, max_value=60),
                            min_size=1, max_size=8, unique=True))
    edges = [ChainEdge(src=a, dst=b, kind="updates")
             for i, a in enumerate(numbers) for b in numbers[i + 1:]
             if draw(st.booleans())]
    return UpdateChainGraph(numbers, edges, dates={})


@given(update_dags())
@settings(max_examples=300)
def test_walk_parents_match_first_path_predecessors(graph):
    walk = graph.walk()
    assert sorted(node for _, node in walk) == graph.nodes
    assert dict((node, parent) for parent, node in walk) == \
        path_memo_parents(graph)
    order = [node for _, node in walk]
    for parent, node in walk:
        if parent is not None:
            assert order.index(parent) < order.index(node)


@given(update_dags(), st.data())
@settings(max_examples=300)
def test_chain_count_matches_listed_chains(graph, data):
    # A pair linked both as "updates" and as "obsoletes" is still one step.
    doubled = [ChainEdge(src=e.src, dst=e.dst, kind="obsoletes")
               for e in graph.edges if data.draw(st.booleans())]
    graph = UpdateChainGraph(graph.nodes, graph.edges + doubled, dates={})
    assert graph.chain_count() == len(graph.chains())


def per_token_statement_boundaries(words: list[str]) -> list[int]:
    """Reference: the index after every token holding ';' or '}'."""
    return [i + 1 for i, w in enumerate(words) if ";" in w or "}" in w]


def per_token_sentence_boundaries(words: list[str]) -> list[int]:
    """Reference: the index after every all-punctuation token that ends in
    '.', '!' or '?'."""
    return [i + 1 for i, w in enumerate(words)
            if w and all(not c.isalnum() for c in w) and w[-1] in ".!?"]


# Words, digits, '_', non-ASCII letters and punctuation runs, glued together
# with or without whitespace, so punctuation runs merge and split.
_PROSE_PIECES = st.sampled_from([
    "word", "42", "_", "é", "ñ_9", "ǅ", "٣", "?).", ";}", "._", ".)", ".", "!",
    "?", ";", "}", "{", "(", "->", "...", "e.g.", "});", "!?", "-", ",",
    " ", "  ", "\n", "\t",
]) | st.characters()


@given(st.lists(_PROSE_PIECES, max_size=40))
@example(["e.g.", "x", "?).", " ", ";}", "._", ".)"])
@settings(max_examples=300)
def test_regex_boundaries_match_per_token_rules(pieces):
    text = "".join(pieces)
    starts = token_offsets(text)[0]
    words = token_texts(text)
    assert statement_boundaries(text, starts) == \
        per_token_statement_boundaries(words)
    assert sentence_boundaries(text, starts) == \
        per_token_sentence_boundaries(words)


@given(st.lists(_PROSE_PIECES, max_size=40))
@settings(max_examples=300)
def test_is_token_start_matches_token_offsets(pieces):
    text = "".join(pieces)
    assert [i for i in range(len(text) + 1) if is_token_start(text, i)] == \
        token_offsets(text)[0]


def all_pairs_map(chunks, spans):
    """Reference: test every span against every chunk. Returns the map and
    its chunk->function table, built alongside it."""
    ordered = sorted(chunks, key=lambda c: c.span[0])
    chunk_to_functions = {c.id: [] for c in ordered}
    fmap = ChunkFunctionMap(function_to_chunks={}, spans={})
    for span in spans:
        fmap.spans[span.fid] = span
        links = []
        covered = span.tok_start
        for chunk in ordered:
            lo = max(chunk.span[0], span.tok_start)
            hi = min(chunk.span[1], span.tok_end)
            if lo >= hi:
                continue
            link = MapLink(chunk.id, span.fid, lo, hi)
            links.append(link)
            chunk_to_functions[chunk.id].append(link)
            if lo <= covered:
                covered = max(covered, hi)
        if not links or covered < span.tok_end:
            raise SpanMismatch(span.fid)
        fmap.function_to_chunks[span.fid] = links
    return fmap, chunk_to_functions


@st.composite
def chunkings(draw):
    """Chunks whose starts and ends both increase: either a chunk_stream
    result, or arbitrary windows that may overlap, nest at an edge or leave
    gaps. Returns (chunks, stream length)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=120))
        chunks = chunk_stream(
            [f"w{i}" for i in range(n)],
            chunk_size=draw(st.integers(min_value=1, max_value=40)),
            redundancy_ratio=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])),
            boundaries=draw(st.lists(st.integers(min_value=1, max_value=n),
                                     max_size=6)))
        return chunks, n
    chunks = []
    start = end = 0
    for k in range(draw(st.integers(min_value=1, max_value=8))):
        start += draw(st.integers(min_value=0, max_value=6))
        end = max(end, start + 1) + draw(st.integers(min_value=0, max_value=6))
        chunks.append(Chunk(id=f"c{k}", origin="s", index=k, span=(start, end),
                            text="", overlap_prev=0, char_start=0))
    return chunks, end


@given(chunkings(), st.data())
@settings(max_examples=400)
def test_bisect_map_matches_all_pairs_map(chunking, data):
    chunks, n = chunking
    spans = []
    for j in range(data.draw(st.integers(min_value=0, max_value=4))):
        a = data.draw(st.integers(min_value=-2, max_value=n + 2))
        b = data.draw(st.integers(min_value=a - 1, max_value=n + 3))
        spans.append(FunctionSpan(fid=f"f{j}", tok_start=a, tok_end=b))
    try:
        expected, chunk_to_functions = all_pairs_map(chunks, spans)
    except SpanMismatch:
        expected = None
    if expected is None:
        try:
            build_map(chunks, spans)
        except SpanMismatch:
            return
        raise AssertionError("build_map accepted spans the reference rejects")
    got = build_map(chunks, spans)
    assert got.links_by_chunk() == \
        {cid: links for cid, links in chunk_to_functions.items() if links}
    assert list(got.function_to_chunks.items()) == \
        list(expected.function_to_chunks.items())
    assert got.spans == expected.spans


@given(st.lists(_PROSE_PIECES, max_size=80), st.data())
@settings(max_examples=300)
def test_map_by_chars_matches_build_map(pieces, data):
    # Functions that start at a token start and end at a token end, as
    # extracted functions do, carrying both their token and char spans.
    text = "".join(pieces)
    starts, ends = token_offsets(text)
    n = len(starts)
    assume(n > 0)
    chunks = chunk_stream(
        (starts, ends), source_text=text,
        chunk_size=data.draw(st.integers(min_value=1, max_value=20)),
        redundancy_ratio=data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])),
        boundaries=data.draw(st.lists(st.integers(min_value=1, max_value=n),
                                      max_size=6)))
    spans = []
    for j in range(data.draw(st.integers(min_value=1, max_value=5))):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=n))
        spans.append(FunctionSpan(fid=f"f{j}", tok_start=a, tok_end=b,
                                  char_start=starts[a], char_end=ends[b - 1]))
    expected = build_map(chunks, spans).function_to_chunks
    derived = map_by_chars(chunks, [("stream", FunctionSpan(
        s.fid, char_start=s.char_start, char_end=s.char_end))
        for s in spans]).function_to_chunks
    assert {fid: [l.chunk_id for l in links]
            for fid, links in derived.items()} == \
        {fid: [l.chunk_id for l in links] for fid, links in expected.items()}


@given(st.lists(_PROSE_PIECES, max_size=80), st.data())
@settings(max_examples=300)
def test_chunks_rebuilt_from_their_cuts_equal_chunk_streams(pieces, data):
    text = "".join(pieces)
    starts, ends = token_offsets(text)
    n = len(starts)
    bounds = st.lists(st.integers(min_value=1, max_value=max(n, 1)),
                      max_size=6)
    chunks = chunk_stream(
        (starts, ends), origin="code:v:net/tcp.c", source_text=text,
        chunk_size=data.draw(st.integers(min_value=1, max_value=20)),
        redundancy_ratio=data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])),
        boundaries=data.draw(bounds),
        fallback_boundaries=data.draw(bounds))
    cuts = cuts_of(chunks)
    assert chunks_from_cuts("code:v:net/tcp.c", text, cuts) == chunks
    # The ingest cache serves every cut entry chunk_stream can make; only
    # the truth of "the file holds a function" matters to the check.
    source = SourceFile(path="net/tcp.c", version="v", content=text,
                        line_count=0)
    assert _entry_cuts({"tokens": n, "cuts": cuts}, source, [None] * bool(n)) \
        == (n, cuts)


# The compiled contract checker against jsonschema. Schemas use only the
# keywords the checker compiles; instances are arbitrary JSON values, most
# of them built from the schema's own shape so that both verdicts occur.

_NAMES = st.sampled_from(["a", "b", "verdict", ""])
_WORDS = st.sampled_from(["", "a", "ab", "yes", "True", "1"])
_KEYWORDS = {
    "type": st.sampled_from(["object", "array", "string"]),
    "enum": st.lists(_WORDS, max_size=3),
    "minLength": st.integers(min_value=0, max_value=3),
}


def _contract_schemas():
    leaf = st.fixed_dictionaries({}, optional=_KEYWORDS)
    return st.recursive(leaf, lambda sub: st.fixed_dictionaries({}, optional={
        **_KEYWORDS,
        "properties": st.dictionaries(_NAMES, sub, max_size=3),
        "required": st.lists(_NAMES, unique=True, max_size=3),
        "items": sub,
        "additionalProperties": sub,
    }), max_leaves=8)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False) | _WORDS
    | st.text(max_size=3),
    lambda sub: st.lists(sub, max_size=3)
    | st.dictionaries(_NAMES | st.text(max_size=2), sub, max_size=3),
    max_leaves=10)


@st.composite
def _instances_for(draw, schema, depth=0):
    if depth > 3 or draw(st.integers(0, 7)) == 0:
        return draw(_JSON_VALUES)
    if schema.get("enum") and draw(st.booleans()):
        return draw(st.sampled_from(schema["enum"]))
    kind = schema.get("type") or draw(st.sampled_from(
        ["object", "array", "string"]))
    if kind == "string":
        n = schema.get("minLength", 0) + draw(st.integers(-1, 1))
        return draw(st.text(alphabet="ab", min_size=max(n, 0),
                            max_size=max(n, 0)))
    if kind == "array":
        return draw(st.lists(_instances_for(schema.get("items", {}),
                                            depth + 1), max_size=3))
    props = schema.get("properties", {})
    extra = schema.get("additionalProperties", {})
    obj = {}
    for name in sorted(set(props) | set(schema.get("required", ()))
                       | {draw(_NAMES), draw(st.sampled_from(["x", "y"]))}):
        if draw(st.integers(0, 4)):
            obj[name] = draw(_instances_for(props.get(name, extra),
                                            depth + 1))
    return obj


@st.composite
def _contract_cases(draw):
    schema = draw(_contract_schemas(), label="schema")
    return schema, draw(_instances_for(schema), label="instance")


@given(_contract_cases())
@example(({"type": "object", "additionalProperties": {"type": "string"}},
          {"a": "x", "b": 1}))
@example(({"type": "array", "items": {"minLength": 1}}, ["", "a"]))
@example(({"required": ["a"], "properties": {"a": {"enum": ["yes"]}}},
          {"b": "yes"}))
@example(({"enum": ["1"]}, 1))
@settings(max_examples=300, deadline=None)
def test_compiled_contract_checker_agrees_with_jsonschema(case):
    schema, instance = case
    valid = validator_for(schema)(schema).is_valid(instance)
    event("valid" if valid else "invalid")
    assert (schema_error(instance, schema) is None) == valid


# _compile is the only validity gate for the schemas it compiles: whatever it
# compiles without raising, the metaschema must accept too. A near miss is a
# contract schema with one keyword, at any depth, set to a value the
# metaschema rejects or to a form the subset leaves out.

_BREAKS = st.sampled_from([
    ("required", "a"), ("required", {"a": "a"}), ("required", ["a", "a"]),
    ("required", ("a",)), ("required", [1]), ("required", None),
    ("enum", "yes"), ("enum", None), ("enum", ("yes",)), ("enum", [1, "a"]),
    ("minLength", -1), ("minLength", True), ("minLength", 1.0),
    ("minLength", 0.5), ("minLength", None),
    ("properties", ["a"]), ("properties", "a"), ("properties", {1: {}}),
    ("properties", {"a": True}), ("properties", None),
    ("items", False), ("additionalProperties", True),
    ("type", "integer"), ("type", ["string"]), ("type", 12),
    ("$schema", "https://json-schema.org/draft/2020-12/schema"),
    ("$schema", "http://json-schema.org/draft-04/schema#"),
    ("minimum", "0"), ("maxItems", -1), ("x-note", "free text"),
])


@st.composite
def _near_miss_schemas(draw):
    schema = draw(_contract_schemas())
    if draw(st.booleans()):
        return schema
    target = schema
    while True:
        children = list(target.get("properties", {}).values()) + [
            target[k] for k in ("items", "additionalProperties") if k in target]
        if not children or draw(st.booleans()):
            break
        target = draw(st.sampled_from(children))
    key, value = draw(_BREAKS)
    target[key] = value
    return schema


@given(_near_miss_schemas())
@example({"required": "a"})
@example({"required": {"a": "a"}})
@example({"required": ["a", "a"]})
@example({"enum": "yes"})
@example({"enum": None})
@example({"minLength": -1})
@example({"minLength": True})
@example({"minLength": 1.5})
@example({"properties": ["a"]})
@example({"properties": {"a": False}})
@example({"items": True})
@example({"$schema": "https://json-schema.org/draft/2020-12/schema"})
@example({"type": "string", "maxLength": 2})
@settings(max_examples=300, deadline=None)
def test_compiled_schemas_pass_their_metaschema(schema):
    try:
        _compile(schema)
    except ValueError:
        event("not compiled")
        return
    event("compiled")
    validator_for(schema).check_schema(schema)
