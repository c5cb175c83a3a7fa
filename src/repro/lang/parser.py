"""Parser for IdLite: recursive descent for statements, precedence
climbing for expressions.

Grammar (EBNF)::

    program    := { function }
    function   := "function" NAME "(" [ NAME { "," NAME } ] ")" block
    block      := "{" { statement } "}"
    statement  := "next" NAME "=" expr ";"
                | "return" expr ";"
                | "for" NAME "=" expr ("to"|"downto") expr block
                | "while" expr block
                | "if" expr block [ "else" (ifstmt | block) ]
                | NAME "[" expr { "," expr } "]" "=" expr ";"
                | NAME "=" expr ";"
    expr       := "if" expr "then" expr "else" expr | or_expr
    or_expr    := and_expr { "or" and_expr }
    and_expr   := not_expr { "and" not_expr }
    not_expr   := "not" not_expr | comparison
    comparison := additive [ ("<"|"<="|">"|">="|"=="|"!=") additive ]
    additive   := multiplic { ("+"|"-") multiplic }
    multiplic  := unary { ("*"|"/"|"%") unary }
    unary      := "-" unary | power
    power      := atom [ "^" unary ]
    atom       := NUM | NAME | NAME "(" args ")" | NAME "[" exprs "]"
                | "(" expr ")"

``expr`` to ``atom`` are one method, :meth:`_Parser.parse_expr`, over
the levels below: an operand parsed at level ``n`` takes every operator
of precedence ``n`` or more.
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.common.errors import SourceLocation as Loc
from repro.lang import ast_nodes as A
from repro.lang.lexer import Tok, tokenize

# Levels of the expression grammar, loosest first.
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY, _POW = range(1, 9)

# Binary operator token -> (precedence, ISA op, level its right operand
# is parsed at, highest precedence an operator after it may have).  The
# last two say what the grammar says: a comparison takes no second
# comparison (non-associative), and ``^`` takes a unary right operand
# (right-associative, and ``2 ^ -1`` parses).
_BINARY: dict[str, tuple[int, str, int, int]] = {
    "or": (_OR, "or", _AND, _OR),
    "and": (_AND, "and", _NOT, _AND),
    **{kind: (_CMP, op, _ADD, _NOT) for kind, op in (
        ("<", "lt"), ("<=", "le"), (">", "gt"), (">=", "ge"), ("==", "eq"),
        ("!=", "ne"))},
    "+": (_ADD, "add", _MUL, _ADD),
    "-": (_ADD, "sub", _MUL, _ADD),
    "*": (_MUL, "mul", _UNARY, _MUL),
    "/": (_MUL, "div", _UNARY, _MUL),
    "%": (_MUL, "mod", _UNARY, _MUL),
    "^": (_POW, "pow", _UNARY, _POW),
}


class _Parser:
    """Reads the ``(kind, value, line, column)`` tuples :func:`tokenize`
    makes; a ``SourceLocation`` is built only for the AST node or the
    ``ParseError`` that holds one."""

    def __init__(self, tokens: list[Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- primitives ----------------------------------------------------

    def check(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str = "") -> Tok:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            hint = f" while parsing {what}" if what else ""
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}{hint}",
                             Loc(tok[2], tok[3]))
        if kind != "eof":
            self.pos += 1
        return tok

    def here(self) -> Loc:
        """The location of the next token."""
        tok = self.tokens[self.pos]
        return Loc(tok[2], tok[3])

    # -- grammar -------------------------------------------------------

    def parse_program(self) -> A.Program:
        loc = self.here()
        functions: dict[str, A.Function] = {}
        while not self.check("eof"):
            fn = self.parse_function()
            if fn.name in functions:
                raise ParseError(f"duplicate function {fn.name!r}", fn.loc)
            functions[fn.name] = fn
        if not functions:
            raise ParseError("empty program", loc)
        return A.Program(loc, functions)

    def parse_function(self) -> A.Function:
        _, _, line, column = self.expect("function", "a function definition")
        name = self.expect("name", "function name")[1]
        self.expect("(", f"parameters of {name}")
        params: list[str] = []
        if not self.check(")"):
            params.append(self.expect("name", "parameter")[1])
            while self.accept(","):
                params.append(self.expect("name", "parameter")[1])
        self.expect(")", f"parameters of {name}")
        body = self.parse_block()
        loc = Loc(line, column)
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {name}", loc)
        return A.Function(loc, name, params, body)

    def parse_block(self) -> list[A.Stmt]:
        self.expect("{", "a block")
        stmts: list[A.Stmt] = []
        tokens = self.tokens
        while True:
            kind = tokens[self.pos][0]
            if kind == "}":
                self.pos += 1
                return stmts
            if kind == "eof":
                raise ParseError("unterminated block", self.here())
            stmts.append(self.parse_statement())

    def parse_statement(self) -> A.Stmt:
        kind, name, line, column = self.tokens[self.pos]

        if kind == "name":
            self.pos += 1
            if self.accept("["):
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                self.expect("=", "array write")
                value = self.parse_expr()
                self.expect(";", "array write")
                return A.ArrayWrite(Loc(line, column), name, indices, value)
            self.expect("=", "binding")
            value = self.parse_expr()
            self.expect(";", "binding")
            return A.Bind(Loc(line, column), name, value)

        if kind == "next":
            self.pos += 1
            name = self.expect("name", "next-variable")[1]
            self.expect("=", "next binding")
            value = self.parse_expr()
            self.expect(";", "next binding")
            return A.NextBind(Loc(line, column), name, value)

        if kind == "return":
            self.pos += 1
            value = self.parse_expr()
            self.expect(";", "return")
            return A.Return(Loc(line, column), value)

        if kind == "for":
            self.pos += 1
            var = self.expect("name", "loop variable")[1]
            self.expect("=", "for loop")
            init = self.parse_expr()
            if self.accept("to"):
                descending = False
            elif self.accept("downto"):
                descending = True
            else:
                raise ParseError("expected 'to' or 'downto'", self.here())
            limit = self.parse_expr()
            body = self.parse_block()
            return A.For(Loc(line, column), var, init, limit, descending,
                         body)

        if kind == "while":
            self.pos += 1
            cond = self.parse_expr()
            body = self.parse_block()
            return A.While(Loc(line, column), cond, body)

        if kind == "if":
            return self.parse_if_statement()

        raise ParseError(f"unexpected token {kind!r}", Loc(line, column))

    def parse_if_statement(self) -> A.If:
        _, _, line, column = self.expect("if")
        cond = self.parse_expr()
        then_body = self.parse_block()
        else_body: list[A.Stmt] = []
        if self.accept("else"):
            if self.check("if"):
                else_body = [self.parse_if_statement()]
            else:
                else_body = self.parse_block()
        return A.If(Loc(line, column), cond, then_body, else_body)

    # -- expressions ---------------------------------------------------

    def parse_expr(self, level: int = _OR) -> A.Expr:
        """An expression at grammar ``level``: a conditional (at ``expr``
        level only), or a prefixed or plain operand followed by every
        binary operator of precedence ``level`` or more (the
        precedence-climbing loop)."""
        tokens = self.tokens
        kind, value, line, column = tokens[self.pos]
        highest = _POW
        if kind == "num":
            self.pos += 1
            left = A.Num(Loc(line, column), value)
        elif kind == "name":
            self.pos += 1
            nxt = tokens[self.pos][0]
            if nxt == "(":
                self.pos += 1
                args: list[A.Expr] = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")", f"arguments of {value}")
                left = A.Call(Loc(line, column), value, args)
            elif nxt == "[":
                self.pos += 1
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                left = A.Index(Loc(line, column), value, indices)
            else:
                left = A.Var(Loc(line, column), value)
        elif kind == "(":
            self.pos += 1
            left = self.parse_expr()
            self.expect(")", "parenthesized expression")
        elif kind == "-":
            self.pos += 1
            operand = self.parse_expr(_UNARY)
            if type(operand) is A.Num and type(operand.value) is not bool:
                left = A.Num(Loc(line, column), -operand.value)
            else:
                left = A.UnOp(Loc(line, column), "neg", operand)
            highest = _MUL
        elif kind == "not" and level <= _NOT:
            self.pos += 1
            left = A.UnOp(Loc(line, column), "not", self.parse_expr(_NOT))
            highest = _AND
        elif kind == "if" and level == _OR:
            self.pos += 1
            cond = self.parse_expr()
            self.expect("then", "conditional expression")
            then = self.parse_expr()
            self.expect("else", "conditional expression")
            other = self.parse_expr()
            return A.IfExp(Loc(line, column), cond, then, other)
        else:
            raise ParseError(f"unexpected token {kind!r} in expression",
                             Loc(line, column))
        while True:
            tok = tokens[self.pos]
            binary = _BINARY.get(tok[0])
            if binary is None:
                return left
            prec, op, right_level, after = binary
            if not level <= prec <= highest:
                return left
            self.pos += 1
            left = A.BinOp(Loc(tok[2], tok[3]), op, left,
                           self.parse_expr(right_level))
            highest = after


def parse(source: str) -> A.Program:
    """Parse IdLite source text into an AST."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (testing convenience)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof", "end of expression")
    return expr
