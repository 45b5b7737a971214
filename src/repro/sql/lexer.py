"""SQL tokenizer."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError

SYMBOLS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", ".",
           "*", "+", "-", "/", "%", ";")


@dataclass(frozen=True)
class Token:
    kind: str       #: IDENT, NUMBER, STRING, SYMBOL, EOF
    value: str
    pos: int

    @property
    def upper(self) -> str:
        return self.value.upper()


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens.

    Raises:
        ParseError: on unterminated strings or unexpected characters.
    """
    tokens: list[Token] = []
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
            tokens.append(Token("STRING", value, i))
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
            tokens.append(Token("NUMBER", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], start))
            continue
        matched = False
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token("SYMBOL", symbol, i))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token("EOF", "", n))
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
