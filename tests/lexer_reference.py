"""The character-loop SQL tokenizer, kept as a test reference.

``repro.sql.lexer.tokenize`` is one pass of a compiled master regex.
This module is the loop it replaced: one character at a time, each
class decided by ``str.isspace`` / ``isdigit`` / ``isalpha`` /
``isalnum``. The differential tests in ``tests/test_lexer.py`` require
the two to give the same tokens, or the same ``ParseError`` message and
position, for every input.
"""

from __future__ import annotations

from repro.errors import ParseError

SYMBOLS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", ".",
           "*", "+", "-", "/", "%", ";")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, pos)`` per token, ending with ``EOF``.

    Raises:
        ParseError: on unterminated strings or unexpected characters.
    """
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":  # line comment
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            value, end = _read_string(text, i)
            tokens.append(("STRING", value, i))
            i = end
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            # scientific notation
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("NUMBER", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("IDENT", text[start:i], start))
            continue
        matched = False
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(("SYMBOL", symbol, i))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(("EOF", "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string with '' escaping."""
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise ParseError("unterminated string literal", position=start)
