"""Tokenizer for the Do-loop DSL.

Syntax is a structured Fortran dialect:

* keywords (case-insensitive): PROGRAM, PARAM, ARRAY, SCALAR, DO, END,
  ENDDO;
* comments: ``{* ... *}`` (possibly multi-line) and ``!`` to end of line;
* one statement per line, continuation not supported (the paper's programs
  do not need it).
"""

from __future__ import annotations

import re

from repro.errors import LexError

KEYWORDS = frozenset(
    {
        "PROGRAM", "PARAM", "ARRAY", "SCALAR", "DO", "END", "ENDDO",
        "DISTRIBUTE", "ALIGN", "WITH",
    }
)

_SINGLE = frozenset("+-*/(),=")
_BLANKS = re.compile(r"[ \t\r]+")
#: the rest of a name: ``\w`` is ``str.isalnum()`` or ``_``
_WORD = re.compile(r"\w+")


class Token:
    """One token.  A slotted class with a plain ``__init__``: the lexer
    builds one per token and the parser reads every field of each."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind  # NAME, NUMBER, KEYWORD, NEWLINE, EOF, or a literal char
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list ending with an EOF token."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(msg, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            if tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            end = _BLANKS.match(source, i).end()
            col += end - i
            i = end
            continue
        if ch == "!":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "{" and source.startswith("{*", i):
            end = source.find("*}", i + 2)
            if end < 0:
                raise error("unterminated comment {* ...")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            start_col = col
            while i < n and (source[i].isdigit() or source[i] == "."):
                i += 1
                col += 1
            # exponent part, e.g. 1.0e-6
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    while j < n and source[j].isdigit():
                        j += 1
                    col += j - i
                    i = j
            text = source[start:i]
            if text.count(".") > 1:
                raise error(f"malformed number {text!r}")
            tokens.append(Token("NUMBER", text, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            i = _WORD.match(source, i).end()
            col += i - start
            text = source[start:i]
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, line, start_col))
            else:
                tokens.append(Token("NAME", text, line, start_col))
            continue
        if ch in _SINGLE:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}")

    if tokens and tokens[-1].kind != "NEWLINE":
        tokens.append(Token("NEWLINE", "\n", line, col))
    tokens.append(Token("EOF", "", line, col))
    return tokens
