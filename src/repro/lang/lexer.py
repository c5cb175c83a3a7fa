"""Tokenizer for IdLite source text."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.common.errors import LexError, SourceLocation

KEYWORDS = {
    "function", "for", "to", "downto", "while", "if", "then", "else",
    "next", "return", "and", "or", "not", "true", "false",
}

# Every lexeme as one alternation, tried in this order at each position.
# A number is digits with at most one '.', then an exponent only if a
# digit follows it (``1.5e+`` is ``1.5``, ``e``, ``+``); ``int`` is what
# has neither.  A word starts with what ``\w`` matches and ``\d`` does
# not.  Symbols are longest first.  The last alternative takes any other
# character, so a match never skips one.
_LEXEME = re.compile(r"""
    (?P<newline> \n )
  | (?P<blank>   [ \t\r]+ )
  | (?P<comment> (?: \# | // ) [^\n]* )
  | (?P<float>   (?: \d+ \. \d* | \. \d+ ) (?: [eE] [+-]? \d+ )?
               | \d+ [eE] [+-]? \d+ )
  | (?P<int>     \d+ )
  | (?P<word>    [^\W\d] \w* )
  | (?P<symbol>  <= | >= | == | != | [(){}\[\],;=<>+\-*/%^] )
  | (?P<other>   . )
""", re.VERBOSE)


@dataclass(frozen=True)
class Tok:
    """A lexical token: kind is 'num', 'name', a keyword, or a symbol."""

    kind: str
    value: Any
    loc: SourceLocation

    def __repr__(self) -> str:
        return f"Tok({self.kind!r}, {self.value!r} @{self.loc})"


def tokenize(source: str) -> list[Tok]:
    """Convert source text into tokens; raises LexError on bad input."""
    tokens: list[Tok] = []
    append = tokens.append
    line = 1
    # Offset of column 1 of the current line.  A comment moves it along
    # with itself: comments have never counted towards a column.
    line_start = 0
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment":
            line_start += m.end() - m.start()
            continue
        text = m.group()
        loc = SourceLocation(line, m.start() - line_start + 1)
        if kind == "word":
            if text == "true":
                append(Tok("num", True, loc))
            elif text == "false":
                append(Tok("num", False, loc))
            elif text in KEYWORDS:
                append(Tok(text, text, loc))
            elif text[0].isalpha() or text[0] == "_":
                append(Tok("name", text, loc))
            elif text[0].isdigit():
                # A numeral ``int()`` does not read (``²``, ``①``).
                raise LexError(f"malformed number {text!r}", loc)
            else:  # numeric, but no digit: ``½``
                raise LexError(f"unexpected character {text[0]!r}", loc)
        elif kind == "symbol":
            append(Tok(text, text, loc))
        elif kind == "int":
            append(Tok("num", int(text), loc))
        elif kind == "float":
            append(Tok("num", float(text), loc))
        else:
            raise LexError(f"unexpected character {text!r}", loc)
    append(Tok("eof", None,
               SourceLocation(line, len(source) - line_start + 1)))
    return tokens
