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

``or_expr`` to ``power`` are one loop, :meth:`_Parser.parse_binary`,
over the levels below: an operand parsed at level ``n`` takes every
operator of precedence ``n`` or more.
"""

from __future__ import annotations

from repro.common.errors import ParseError
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
    def __init__(self, tokens: list[Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- primitives ----------------------------------------------------

    def advance(self) -> Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def accept(self, kind: str) -> Tok | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str = "") -> Tok:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            hint = f" while parsing {what}" if what else ""
            raise ParseError(
                f"expected {kind!r}, found {tok.kind!r}{hint}", tok.loc)
        if kind != "eof":
            self.pos += 1
        return tok

    # -- grammar -------------------------------------------------------

    def parse_program(self) -> A.Program:
        loc = self.tokens[self.pos].loc
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
        loc = self.expect("function", "a function definition").loc
        name = self.expect("name", "function name").value
        self.expect("(", f"parameters of {name}")
        params: list[str] = []
        if not self.check(")"):
            params.append(self.expect("name", "parameter").value)
            while self.accept(","):
                params.append(self.expect("name", "parameter").value)
        self.expect(")", f"parameters of {name}")
        body = self.parse_block()
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {name}", loc)
        return A.Function(loc, name, params, body)

    def parse_block(self) -> list[A.Stmt]:
        self.expect("{", "a block")
        stmts: list[A.Stmt] = []
        while not self.check("}"):
            if self.check("eof"):
                raise ParseError("unterminated block",
                                 self.tokens[self.pos].loc)
            stmts.append(self.parse_statement())
        self.expect("}")
        return stmts

    def parse_statement(self) -> A.Stmt:
        tok = self.tokens[self.pos]

        if tok.kind == "next":
            self.advance()
            name = self.expect("name", "next-variable").value
            self.expect("=", "next binding")
            value = self.parse_expr()
            self.expect(";", "next binding")
            return A.NextBind(tok.loc, name, value)

        if tok.kind == "return":
            self.advance()
            value = self.parse_expr()
            self.expect(";", "return")
            return A.Return(tok.loc, value)

        if tok.kind == "for":
            self.advance()
            var = self.expect("name", "loop variable").value
            self.expect("=", "for loop")
            init = self.parse_expr()
            if self.accept("to"):
                descending = False
            elif self.accept("downto"):
                descending = True
            else:
                raise ParseError("expected 'to' or 'downto'",
                                 self.tokens[self.pos].loc)
            limit = self.parse_expr()
            body = self.parse_block()
            return A.For(tok.loc, var, init, limit, descending, body)

        if tok.kind == "while":
            self.advance()
            cond = self.parse_expr()
            body = self.parse_block()
            return A.While(tok.loc, cond, body)

        if tok.kind == "if":
            return self.parse_if_statement()

        if tok.kind == "name":
            name = self.advance().value
            if self.accept("["):
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                self.expect("=", "array write")
                value = self.parse_expr()
                self.expect(";", "array write")
                return A.ArrayWrite(tok.loc, name, indices, value)
            self.expect("=", "binding")
            value = self.parse_expr()
            self.expect(";", "binding")
            return A.Bind(tok.loc, name, value)

        raise ParseError(f"unexpected token {tok.kind!r}", tok.loc)

    def parse_if_statement(self) -> A.If:
        loc = self.expect("if").loc
        cond = self.parse_expr()
        then_body = self.parse_block()
        else_body: list[A.Stmt] = []
        if self.accept("else"):
            if self.check("if"):
                else_body = [self.parse_if_statement()]
            else:
                else_body = self.parse_block()
        return A.If(loc, cond, then_body, else_body)

    # -- expressions ---------------------------------------------------

    def parse_expr(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "if":
            self.pos += 1
            cond = self.parse_expr()
            self.expect("then", "conditional expression")
            then = self.parse_expr()
            self.expect("else", "conditional expression")
            other = self.parse_expr()
            return A.IfExp(tok.loc, cond, then, other)
        return self.parse_binary(_OR)

    def parse_binary(self, level: int) -> A.Expr:
        """An expression at grammar ``level``: a prefixed or plain
        operand, then every binary operator of precedence ``level`` or
        more (the precedence-climbing loop)."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.kind
        highest = _POW
        if kind == "not" and level <= _NOT:
            self.pos += 1
            left = A.UnOp(tok.loc, "not", self.parse_binary(_NOT))
            highest = _AND
        elif kind == "-":
            self.pos += 1
            operand = self.parse_binary(_UNARY)
            if type(operand) is A.Num and type(operand.value) is not bool:
                left = A.Num(tok.loc, -operand.value)
            else:
                left = A.UnOp(tok.loc, "neg", operand)
            highest = _MUL
        else:
            left = self.parse_atom(tok)
        while True:
            tok = tokens[self.pos]
            binary = _BINARY.get(tok.kind)
            if binary is None:
                return left
            prec, op, right_level, after = binary
            if not level <= prec <= highest:
                return left
            self.pos += 1
            left = A.BinOp(tok.loc, op, left, self.parse_binary(right_level))
            highest = after

    def parse_atom(self, tok: Tok) -> A.Expr:
        kind = tok.kind
        if kind == "num":
            self.pos += 1
            return A.Num(tok.loc, tok.value)

        if kind == "name":
            self.pos += 1
            nxt = self.tokens[self.pos].kind
            if nxt == "(":
                self.pos += 1
                args: list[A.Expr] = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")", f"arguments of {tok.value}")
                return A.Call(tok.loc, tok.value, args)
            if nxt == "[":
                self.pos += 1
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                return A.Index(tok.loc, tok.value, indices)
            return A.Var(tok.loc, tok.value)

        if kind == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")", "parenthesized expression")
            return inner

        raise ParseError(f"unexpected token {kind!r} in expression", tok.loc)


def parse(source: str) -> A.Program:
    """Parse IdLite source text into an AST."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (testing convenience)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof", "end of expression")
    return expr
