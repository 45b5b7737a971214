"""Differential tests: the regex tokenizer against the character loop.

``repro.sql.lexer.tokenize`` must give the tokens of
``tests/lexer_reference.py`` (kind, value and position), or raise the
same ``ParseError`` message at the same position, for every input:
hypothesis over SQL-like text, and every code point alone, as the start
of a token and inside an identifier.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ParseError
from repro.sql.lexer import tokenize

from lexer_reference import reference_tokenize

#: pieces that meet every branch of the character loop
FRAGMENTS = (
    "SELECT", "from", "x", "_a1", "é", "ß", "Ⅻ", "一", "a²", "½", "²",
    "'it''s'", "''", "'''", "'a''", "'unterminated", "'", "'--x'",
    "--c\n", "--c", "-", "--", "1.2.3", "1e5", "1e", "1e+", "1E-3",
    "2e+x", ".5", ".", "..5", "5.", "1.e3", "٣", "<>", "!=", "!", "<=",
    ">=", "=", "<", ">", "(", ")", ",", "*", "+", "/", "%", ";", "@",
    "\\", " ", " ", "\t", "\n", " ", "\x00",
)


def outcome(lex, text: str):
    """The tokens as ``(kind, value, pos)``, or the error."""
    try:
        return [tuple(token)[:3] for token in lex(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), \
        repr(text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12),
       st.lists(st.sampled_from(("", " ", "\n")), min_size=12,
                max_size=12))
def test_sql_like_text(fragments, gaps):
    assert_same("".join(f + g for f, g in zip(fragments, gaps)))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=24))
def test_any_text(text):
    assert_same(text)


def test_tokens_carry_upper_case():
    tokens = tokenize("select Ab 'q' 1e5")
    assert [t.upper for t in tokens] == ["SELECT", "AB", "Q", "1E5", ""]


def _plane(plane: int) -> list[str]:
    return [chr(c) for c in range(plane << 16, (plane + 1) << 16)]


@pytest.mark.parametrize("plane", range(17))
def test_every_code_point(plane):
    """Each code point alone and after an identifier's first letter.

    Word characters (``isalnum() or '_'``) sit in one text, each
    alone and inside an identifier; the rest end an identifier, so
    ``'a' + c`` lexes ``c`` as the start of a token, one text each.
    """
    chars = _plane(plane)
    word = [c for c in chars if c.isalnum() or c == "_"]
    assert_same(" ".join("a" + c + "b" for c in word))
    # a word character that may not start a token raises; lex past it
    rest = " ".join(word)
    while rest:
        ours = outcome(tokenize, rest)
        assert ours == outcome(reference_tokenize, rest)
        if ours[0] != "ParseError":
            break
        rest = rest[ours[2] + 1:]
    for c in chars:
        if not (c.isalnum() or c == "_"):
            text = "a" + c
            try:
                ours = tokenize(text)
            except ParseError as exc:
                ours = (str(exc), exc.position)
            try:
                theirs = reference_tokenize(text)
            except ParseError as exc:
                theirs = (str(exc), exc.position)
            if isinstance(ours, list):
                ours = [tuple(token)[:3] for token in ours]
            assert ours == theirs, repr(text)
