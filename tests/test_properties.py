"""Property tests for invariants other modules rely on."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltaspec.code_ingest import mask_comments_and_strings
from deltaspec.errors import ContractViolation, MalformedDocument
from deltaspec.llm_gateway import extract_json_payload
from deltaspec.rfc_ingest import strip_boilerplate

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
