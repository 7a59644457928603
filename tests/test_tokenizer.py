import random
import re

import pytest

from deltaspec.tokenizer import count_tokens, token_offsets, token_texts


def reference_count(text: str) -> int:
    # Independent restatement of the rule: word runs and punctuation runs,
    # whitespace never included.
    return len(re.findall(r"[0-9A-Za-z_]+|[^\s0-9A-Za-z_]+", text, re.UNICODE))


@pytest.mark.parametrize("text,expected", [
    ("", []),
    ("word", ["word"]),
    ("a b", ["a", "b"]),
    ("seq->nxt;", ["seq", "->", "nxt", ";"]),
    ("RFC 793, 1981.", ["RFC", "793", ",", "1981", "."]),
    ("x==y", ["x", "==", "y"]),
    ("  \t\n ", []),
])
def test_token_texts(text, expected):
    assert token_texts(text) == expected


def test_spans_index_into_source():
    text = "if (tp->rcv_nxt != seq)\n\treturn;\n"
    starts, ends = token_offsets(text)
    assert all(isinstance(x, int) for x in starts + ends)
    assert [text[s:e] for s, e in zip(starts, ends)] == token_texts(text)
    assert starts == sorted(starts)


def test_counts_agree_with_reference():
    rng = random.Random(793)
    alphabet = "ab _;(){}->==\n\t.,"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        assert count_tokens(text) == reference_count(text)
        starts, ends = token_offsets(text)
        assert count_tokens(text) == len(starts) == len(ends)


def test_whitespace_never_tokenized():
    for text in ("a  b", "a\nb", "a\t b \n"):
        for tok in token_texts(text):
            assert not any(c.isspace() for c in tok)
