"""Lexer tests."""

import re
import time

import pytest

from repro.common.errors import LexError
from repro.lang.lexer import _LEXEME, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)][:-1]  # drop eof


class TestBasics:
    def test_empty_source_is_just_eof(self):
        assert kinds("") == ["eof"]

    def test_numbers(self):
        assert values("1 23 4.5 0.25 1e3 2.5e-2") == [1, 23, 4.5, 0.25, 1000.0, 0.025]

    def test_int_vs_float_types(self):
        one, pi = values("1 3.14")
        assert isinstance(one, int)
        assert isinstance(pi, float)

    def test_names_and_keywords(self):
        toks = tokenize("for foo to bar downto next while")
        assert [t.kind for t in toks][:-1] == [
            "for", "name", "to", "name", "downto", "next", "while",
        ]

    def test_booleans_are_num_tokens(self):
        toks = tokenize("true false")
        assert toks[0].kind == "num" and toks[0].value is True
        assert toks[1].kind == "num" and toks[1].value is False

    def test_underscore_names(self):
        assert tokenize("velocity_position _x x_1")[0].value == "velocity_position"

    def test_symbols_longest_match(self):
        assert kinds("<= < >= > == != =")[:-1] == [
            "<=", "<", ">=", ">", "==", "!=", "=",
        ]

    def test_all_arithmetic_symbols(self):
        assert kinds("+ - * / % ^")[:-1] == ["+", "-", "*", "/", "%", "^"]

    def test_brackets(self):
        assert kinds("( ) { } [ ] , ;")[:-1] == [
            "(", ")", "{", "}", "[", "]", ",", ";",
        ]


class TestCommentsAndLayout:
    def test_hash_comment(self):
        assert kinds("x # the rest is ignored\ny") == ["name", "name", "eof"]

    def test_double_slash_comment(self):
        assert kinds("x // ignored\ny") == ["name", "name", "eof"]

    def test_locations_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[1].loc.column == 3

    def test_division_not_comment(self):
        assert kinds("a / b") == ["name", "/", "name", "eof"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_error_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("ab\n  @")
        assert exc.value.location.line == 2


def stream(src):
    return [(t.kind, t.value, repr(t.loc)) for t in tokenize(src)]


class TestScannerCorners:
    """What the character-at-a-time scanner did with the inputs a
    pattern is most likely to read differently, pinned before it was
    replaced by one."""

    def test_a_dot_or_exponent_needs_its_digit(self):
        assert stream("1.e5") == [("num", 100000.0, "1:1"),
                                  ("eof", None, "1:5")]
        assert stream("1.5e+") == [("num", 1.5, "1:1"), ("name", "e", "1:4"),
                                   ("+", "+", "1:5"), ("eof", None, "1:6")]
        assert stream("1..2") == [("num", 1.0, "1:1"), ("num", 0.2, "1:3"),
                                  ("eof", None, "1:5")]
        assert stream("1e5.3") == [("num", 100000.0, "1:1"),
                                   ("num", 0.3, "1:4"), ("eof", None, "1:6")]
        assert stream("2else 1e") == [
            ("num", 2, "1:1"), ("else", "else", "1:2"), ("num", 1, "1:7"),
            ("name", "e", "1:8"), ("eof", None, "1:9")]
        with pytest.raises(LexError, match=r"^1:3: unexpected character '\.'$"):
            tokenize(".5.")

    def test_unicode_letters_and_decimal_digits(self):
        assert stream("é1") == [("name", "é1", "1:1"), ("eof", None, "1:3")]
        assert stream("１２ １.５") == [("num", 12, "1:1"), ("num", 1.5, "1:4"),
                                     ("eof", None, "1:7")]
        assert isinstance(tokenize("１２")[0].value, int)
        assert values("1٣ 2.５") == [13, 2.5]  # scripts mix, as int() reads

    def test_a_numeral_int_cannot_read_starts_no_token(self):
        # str.isdigit accepts the superscript; int() does not.
        with pytest.raises(LexError, match="^1:1: malformed number '²'$"):
            tokenize("²")
        with pytest.raises(LexError, match="^1:3: malformed number '²'$"):
            tokenize("x ²")
        with pytest.raises(LexError, match="^1:1: unexpected character '½'$"):
            tokenize("½")
        # ... but inside a name it is a letter like any other.
        assert stream("x² y½") == [("name", "x²", "1:1"),
                                   ("name", "y½", "1:4"),
                                   ("eof", None, "1:6")]

    def test_a_comment_counts_towards_no_column(self):
        assert stream("x # c") == [("name", "x", "1:1"), ("eof", None, "1:3")]
        assert stream("x // c\n") == [("name", "x", "1:1"),
                                      ("eof", None, "2:1")]
        assert stream("a\t\rb") == [("name", "a", "1:1"), ("name", "b", "1:4"),
                                     ("eof", None, "1:5")]

    def test_every_other_character_is_an_error_where_it_stands(self):
        for bad in "@!$&|~'\"\\:?.":
            with pytest.raises(LexError) as exc:
                tokenize(f"ab\n  {bad}")
            assert str(exc.value) == f"2:3: unexpected character {bad!r}"

    def test_a_long_run_of_blanks_scans_in_linear_time(self):
        n = 50_000
        assert stream("x" + " " * n) == [("name", "x", "1:1"),
                                         ("eof", None, f"1:{n + 2}")]
        assert stream("x # c" + "\t" * 3) == [("name", "x", "1:1"),
                                              ("eof", None, "1:3")]
        # A scan that retried the blanks at every later position would
        # take n²/2 steps here: seconds, not a millisecond.
        for src in ("x" + " " * n, " " * n + "x", ("x" + " " * 100) * 500):
            start = time.perf_counter()
            tokenize(src)
            assert time.perf_counter() - start < 0.5

    def test_the_pattern_compiles_on_every_supported_python(self):
        # Possessive quantifiers and atomic groups are Python 3.11+;
        # on 3.10 the module would not import.
        assert not re.search(r"[*+?}]\+|\(\?>", _LEXEME.pattern)


class TestRealPrograms:
    def test_paper_example_tokenizes(self):
        src = """
        function main(n) {
            A = matrix(50, 10);
            for i = 1 to 50 {
                for j = 1 to 10 {
                    A[i, j] = f(i, j);
                }
            }
            return A;
        }
        """
        toks = tokenize(src)
        assert toks[-1].kind == "eof"
        assert sum(1 for t in toks if t.kind == "for") == 2
