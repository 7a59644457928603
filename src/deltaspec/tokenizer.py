"""Shared tokenizer: one rule, used by every stage that counts tokens.

A token is either a maximal run of word characters or a maximal run of
non-space punctuation. Whitespace never appears in a token. The same rule is
applied to RFC prose and to C source so that token budgets, chunk spans and
cost accounting all agree with each other.
"""

from __future__ import annotations

import re
from itertools import accumulate

_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")
# The same rule in one group, so split() keeps the tokens between the gaps.
_TOKEN_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})")
# A token's first character: a word or punctuation character that does not
# continue a run of its own kind.
_TOKEN_START_RE = re.compile(r"(?<!\w)\w|(?<![^\w\s])[^\w\s]")


def token_offsets(text: str) -> tuple[list[int], list[int]]:
    """Each token's [start, end) character span, as two parallel lists."""
    # split() alternates gap, token, gap, ..., gap; the running lengths of
    # those pieces are each token's start and end in turn.
    bounds = list(accumulate(map(len, _TOKEN_SPLIT_RE.split(text))))
    return bounds[0:-1:2], bounds[1::2]


def is_token_start(text: str, pos: int) -> bool:
    """Whether a token of ``text`` starts at character ``pos``."""
    return _TOKEN_START_RE.match(text, pos) is not None


def token_texts(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def count_tokens(text: str) -> int:
    """Number of tokens in ``text``; empty input counts zero."""
    return len(_TOKEN_RE.findall(text))
