"""Tokenizer for IdLite source text.

:func:`tokenize` returns one plain tuple per token, ``(kind, value,
line, column)``: ``kind`` is ``"num"``, ``"name"``, a keyword, a symbol
or ``"eof"`` (always the last token); ``value`` is the number, the name,
the keyword or symbol text, or ``None`` for ``eof``; ``line`` and
``column`` are 1-based.  No token carries a ``SourceLocation``: the
parser builds one for the AST node or the ``ParseError`` that holds it,
and a ``LexError`` builds its own when it is raised.  A comment counts
towards no column, and ``eof`` stands one column past the last
character of the last line.
"""

from __future__ import annotations

import re
from typing import Any

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


# What :func:`tokenize` returns a list of.
Tok = tuple[str, Any, int, int]


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
        start, end = m.span(kind)
        column = start - line_start + 1
        if kind == "word":
            text = source[start:end]
            word = words(text)
            if word is not None:
                append((word[0], word[1], line, column))
            elif text[0].isalpha() or text[0] == "_":
                append(("name", text, line, column))
            elif text[0].isdigit():
                # A numeral ``int()`` does not read (``²``, ``①``).
                raise LexError(f"malformed number {text!r}",
                               SourceLocation(line, column))
            else:  # numeric, but no digit: ``½``
                raise LexError(f"unexpected character {text[0]!r}",
                               SourceLocation(line, column))
        elif kind == "symbol":
            text = source[start:end]
            append((text, text, line, column))
        elif kind == "newline":
            line += 1
            line_start = end
        elif kind == "int":
            append(("num", int(source[start:end]), line, column))
        elif kind == "float":
            append(("num", float(source[start:end]), line, column))
        elif kind == "comment":
            line_start += end - start
        elif kind == "end":
            break
        else:
            raise LexError(f"unexpected character {source[start:end]!r}",
                           SourceLocation(line, column))
    append(("eof", None, line, len(source) - line_start + 1))
    return tokens
