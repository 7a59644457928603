"""Property tests for invariants other modules rely on."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltaspec.code_ingest import (
    _doc_comment_before,
    _line_of,
    _newline_offsets,
    mask_comments_and_strings,
)
from deltaspec.errors import ContractViolation, MalformedDocument
from deltaspec.llm_gateway import extract_json_payload
from deltaspec.rfc_ingest import strip_boilerplate
from deltaspec.spec_evolution import ChainEdge, UpdateChainGraph

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
