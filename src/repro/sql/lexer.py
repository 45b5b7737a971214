"""SQL tokenizer: one pass of a compiled master regex."""

from __future__ import annotations

import functools
import itertools
import re
from typing import NamedTuple

import numpy as np

from ..errors import ParseError


class Token(NamedTuple):
    kind: str       #: IDENT, NUMBER, STRING, SYMBOL, EOF
    value: str
    pos: int
    upper: str      #: ``value.upper()``, computed once by the lexer


#: ``Token`` from a 4-tuple without a Python-level ``__new__`` call
_token = functools.partial(tuple.__new__, Token)


def _numeric_misfits() -> list[str]:
    """Every numeric character that is neither a decimal nor a letter.

    ``re``'s ``\\w`` is ``str.isalnum() or '_'`` and ``\\s`` is
    ``str.isspace()`` on every code point, but ``\\d`` is
    ``isdecimal()``, narrower than ``isdigit()`` (``²``), and
    ``[^\\W\\d]`` is wider than ``isalpha()`` by these (``½``, ``Ⅻ``).
    """
    found = []
    for start in range(0, 0x110000, 0x10000):  # one plane at a time
        plane = np.arange(start, start + 0x10000, dtype="<u4").tobytes()
        words = re.sub(r"[\W\d_]+", "",
                       plane.decode("utf-32-le", "surrogatepass"))
        found.extend(c for c in words if not c.isalpha())
    return found


def _ranges(chars) -> str:
    """``chars`` as the body of a regex class, one range per run of
    consecutive code points."""
    codes = sorted(map(ord, chars))
    return "".join(
        f"{re.escape(chr(run[0][1]))}-{re.escape(chr(run[-1][1]))}"
        for run in (list(group) for _, group in itertools.groupby(
            enumerate(codes), lambda pair: pair[1] - pair[0])))


_NUMERIC = _numeric_misfits()
#: ``str.isdigit()`` as a class
_DIGIT = "[\\d" + _ranges(c for c in _NUMERIC if c.isdigit()) + "]"
_DIGIT_OR_DOT = _DIGIT[:-1] + ".]"
#: ``str.isalpha() or '_'``. ``re`` keeps a class's code points below
#: U+10000 in one bitmap but tests those above one item at a time, so
#: the letters of the basic plane take the first class in one step
_IDENT_START = (
    "(?:[^\\W\\d" + _ranges(c for c in _NUMERIC if c <= "\uffff")
    + "\\U00010000-\\U0010ffff]|[^\\W\\d\\x00-\\uffff"
    + _ranges(c for c in _NUMERIC if c > "\uffff") + "])")

#: one alternative per token kind, tried in this order at each position;
#: whitespace and ``--`` comments match with no group, anything else
#: with ``ERROR``. A string's body sits in a lookahead so that ``''``
#: stays an escape: the regex may not give it back to end the string.
_TOKEN = re.compile("|".join((
    r"\s+|--[^\n]*\n?",
    r"(?P<STRING>'(?=(?P<body>(?:[^']|'')*))(?P=body)')",
    rf"(?P<NUMBER>(?:{_DIGIT}|\.(?={_DIGIT})){_DIGIT_OR_DOT}*"
    rf"(?:[eE][+-]?{_DIGIT}+)?)",
    rf"(?P<IDENT>{_IDENT_START}\w*)",
    r"(?P<SYMBOL><>|!=|<=|>=|[=<>(),.*+\-/%;])",
    r"(?P<ERROR>.)",
)), re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens.

    Raises:
        ParseError: on unterminated strings or unexpected characters.
    """
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        value = match.group()
        if kind == "STRING":
            value = value[1:-1].replace("''", "'")
        elif kind == "ERROR":
            if value == "'":
                raise ParseError("unterminated string literal",
                                 position=match.start())
            raise ParseError(f"unexpected character {value!r}",
                             position=match.start())
        tokens.append(_token((kind, value, match.start(), value.upper())))
    tokens.append(_token(("EOF", "", len(text), "")))
    return tokens
