"""Tokenizer for IdLite source text."""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.common.errors import LexError, SourceLocation

KEYWORDS = {
    "function", "for", "to", "downto", "while", "if", "then", "else",
    "next", "return", "and", "or", "not", "true", "false",
}

# A word that is not a name: word -> (token kind, token value).
_WORDS: dict[str, tuple[str, Any]] = {k: (k, k) for k in KEYWORDS}
_WORDS["true"] = ("num", True)
_WORDS["false"] = ("num", False)

# One match per token, newline or comment: the blanks in front of a
# lexeme are taken into its match, and the lexeme itself is one
# alternation tried in this order.  A number is digits with at most one
# '.', then an exponent only if a digit follows it (``1.5e+`` is
# ``1.5``, ``e``, ``+``); ``int`` is what has neither.  A word starts
# with what ``\w`` matches and ``\d`` does not.  Symbols are longest
# first.  ``other`` takes any other character but a blank, so a match
# never skips one, and ``end`` takes the blanks at the end of the source.
# No lexeme starts with a blank and one always follows the blanks, so
# the greedy prefix never backtracks: a scan is linear in the source.
_LEXEME = re.compile(r"""
    [ \t\r]*
    (?: (?P<newline> \n )
      | (?P<comment> (?: \# | // ) [^\n]* )
      | (?P<float>   (?: \d+ \. \d* | \. \d+ ) (?: [eE] [+-]? \d+ )?
                   | \d+ [eE] [+-]? \d+ )
      | (?P<int>     \d+ )
      | (?P<word>    [^\W\d] \w* )
      | (?P<symbol>  <= | >= | == | != | [(){}\[\],;=<>+\-*/%^] )
      | (?P<other>   [^ \t\r\n] )
      | (?P<end>     \Z ) )
""", re.VERBOSE)


class Tok(NamedTuple):
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
    words = _WORDS.get
    line = 1
    # Offset of column 1 of the current line.  A comment moves it along
    # with itself: comments have never counted towards a column.
    line_start = 0
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        if kind == "comment":
            line_start += m.end() - start
            continue
        text = m.group(kind)
        loc = SourceLocation(line, start - line_start + 1)
        if kind == "word":
            word = words(text)
            if word is not None:
                append(Tok(word[0], word[1], loc))
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
        elif kind == "end":
            break
        else:
            raise LexError(f"unexpected character {text!r}", loc)
    append(Tok("eof", None,
               SourceLocation(line, len(source) - line_start + 1)))
    return tokens
