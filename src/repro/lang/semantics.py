"""Semantic analysis for IdLite.

Checks performed (all are compile-time errors):

* every name is defined before use, and bound at most once per scope
  (scalar single assignment — the array-element analogue is enforced at
  run time by the I-structure memory);
* ``next x`` appears only inside a loop, for an ``x`` defined outside the
  innermost enclosing loop, at most once per branch; the loop's carried
  variables are recorded on the ``For``/``While`` node;
* calls resolve to builtins or defined functions with the right arity;
* subscripts are applied only to names that can denote arrays;
* ``return`` does not appear inside loop bodies (SPs of loops are spawned
  asynchronously, so a return there has no meaningful target), and every
  function returns a value on its top-level path.

The analysis decorates the AST in place and returns a
:class:`ProgramInfo` summary used by later stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SemanticError
from repro.lang import ast_nodes as A

# Name kinds.
SCALAR = "scalar"
ARRAY = "array"
UNKNOWN = "unknown"  # parameters / function results: could be either


@dataclass
class FunctionInfo:
    name: str
    arity: int
    calls: set[str] = field(default_factory=set)
    has_loops: bool = False


@dataclass
class ProgramInfo:
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    def check_entry(self, entry: str) -> None:
        if entry not in self.functions:
            raise SemanticError(f"entry function {entry!r} is not defined")


class _Scope:
    """A lexical scope: names defined here plus a parent chain.

    ``loop`` marks scopes opened by For/While bodies — the boundary that
    matters for ``next`` legality.
    """

    def __init__(self, parent: "_Scope | None", loop: A.For | A.While | None = None):
        self.parent = parent
        self.loop = loop
        self.names: dict[str, str] = {}  # name -> kind

    def define(self, name: str, kind: str, loc) -> None:
        if name in self.names:
            raise SemanticError(
                f"single-assignment violation: {name!r} already bound in "
                "this scope", loc,
            )
        self.names[name] = kind

    def lookup(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def defined_outside_loop(self, name: str, loop_scope: "_Scope") -> bool:
        """True when ``name`` is bound in a scope enclosing ``loop_scope``."""
        scope: _Scope | None = loop_scope.parent
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False


class _Analyzer:
    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.info = ProgramInfo()
        self.current: FunctionInfo | None = None

    def run(self) -> ProgramInfo:
        for fn in self.program.functions.values():
            self.info.functions[fn.name] = FunctionInfo(fn.name, len(fn.params))
        for fn in self.program.functions.values():
            self._check_function(fn)
        return self.info

    # -- functions -------------------------------------------------------

    def _check_function(self, fn: A.Function) -> None:
        self.current = self.info.functions[fn.name]
        scope = _Scope(None)
        for p in fn.params:
            scope.define(p, UNKNOWN, fn.loc)
        returned = self._check_body(fn.body, scope, in_loop=False)
        if not returned:
            raise SemanticError(
                f"function {fn.name!r} does not return a value on its "
                "top-level path", fn.loc,
            )

    def _check_body(self, body: list[A.Stmt], scope: _Scope, in_loop: bool) -> bool:
        """Check a statement list; returns True if it definitely returns."""
        next_seen: set[str] = set()
        returned = False
        for stmt in body:
            if returned:
                raise SemanticError("unreachable statement after return", stmt.loc)
            returned = self._check_stmt(stmt, scope, in_loop, next_seen)
        return returned

    # -- statements --------------------------------------------------------

    def _check_stmt(self, stmt: A.Stmt, scope: _Scope, in_loop: bool,
                    next_seen: set[str]) -> bool:
        """Check one statement; returns True if it definitely returns."""
        check = _CHECK_STMT.get(type(stmt))
        if check is None:
            raise SemanticError(f"unknown statement {type(stmt).__name__}",
                                stmt.loc)
        return check(self, stmt, scope, in_loop, next_seen)

    def _check_bind(self, stmt: A.Bind, scope: _Scope, in_loop: bool,
                    next_seen: set[str]) -> bool:
        kind = self._check_expr(stmt.value, scope)
        scope.define(stmt.name, kind, stmt.loc)
        return False

    def _check_next(self, stmt: A.NextBind, scope: _Scope, in_loop: bool,
                    next_seen: set[str]) -> bool:
        if not in_loop:
            raise SemanticError(
                f"'next {stmt.name}' outside of a loop", stmt.loc)
        # Find the innermost loop scope.
        loop_scope = scope
        while loop_scope.loop is None:
            assert loop_scope.parent is not None
            loop_scope = loop_scope.parent
        if not scope.defined_outside_loop(stmt.name, loop_scope):
            raise SemanticError(
                f"'next {stmt.name}': variable is not defined outside "
                "the enclosing loop", stmt.loc,
            )
        if stmt.name in next_seen:
            raise SemanticError(
                f"'next {stmt.name}' appears twice on one path", stmt.loc)
        next_seen.add(stmt.name)
        loop = loop_scope.loop
        if stmt.name not in loop.carried:
            loop.carried.append(stmt.name)
        self._check_expr(stmt.value, scope)
        return False

    def _check_write(self, stmt: A.ArrayWrite, scope: _Scope, in_loop: bool,
                     next_seen: set[str]) -> bool:
        kind = scope.lookup(stmt.array)
        if kind is None:
            raise SemanticError(f"undefined array {stmt.array!r}", stmt.loc)
        if kind == SCALAR:
            raise SemanticError(
                f"{stmt.array!r} is a scalar, not an array", stmt.loc)
        for idx in stmt.indices:
            self._check_expr(idx, scope)
        self._check_expr(stmt.value, scope)
        return False

    def _check_for(self, stmt: A.For, scope: _Scope, in_loop: bool,
                   next_seen: set[str]) -> bool:
        assert self.current is not None
        self.current.has_loops = True
        self._check_expr(stmt.init, scope)
        self._check_expr(stmt.limit, scope)
        body_scope = _Scope(scope, loop=stmt)
        body_scope.define(stmt.var, SCALAR, stmt.loc)
        self._check_body(stmt.body, body_scope, in_loop=True)
        if stmt.var in stmt.carried:
            raise SemanticError(
                f"loop variable {stmt.var!r} cannot be a next-variable",
                stmt.loc,
            )
        return False

    def _check_while(self, stmt: A.While, scope: _Scope, in_loop: bool,
                     next_seen: set[str]) -> bool:
        assert self.current is not None
        self.current.has_loops = True
        body_scope = _Scope(scope, loop=stmt)
        # The condition sees carried variables, i.e. the loop scope.
        self._check_expr(stmt.cond, body_scope)
        self._check_body(stmt.body, body_scope, in_loop=True)
        return False

    def _check_if(self, stmt: A.If, scope: _Scope, in_loop: bool,
                  next_seen: set[str]) -> bool:
        self._check_expr(stmt.cond, scope)
        then_scope = _Scope(scope, loop=None)
        then_ret = self._check_body_branch(stmt.then_body, then_scope,
                                           in_loop, next_seen)
        else_scope = _Scope(scope, loop=None)
        else_ret = self._check_body_branch(stmt.else_body, else_scope,
                                           in_loop, next_seen)
        return then_ret and else_ret and bool(stmt.else_body)

    def _check_return(self, stmt: A.Return, scope: _Scope, in_loop: bool,
                      next_seen: set[str]) -> bool:
        if in_loop:
            raise SemanticError(
                "'return' inside a loop body is not supported: loop SPs "
                "run asynchronously and have no caller to return to",
                stmt.loc,
            )
        self._check_expr(stmt.value, scope)
        return True

    def _check_body_branch(self, body: list[A.Stmt], scope: _Scope,
                           in_loop: bool, outer_next_seen: set[str]) -> bool:
        """Like _check_body but `next` names are tracked per branch while
        still conflicting with ones already seen on the enclosing path."""
        branch_seen = set(outer_next_seen)
        returned = False
        for stmt in body:
            if returned:
                raise SemanticError("unreachable statement after return", stmt.loc)
            returned = self._check_stmt(stmt, scope, in_loop, branch_seen)
        return returned

    # -- expressions -------------------------------------------------------

    def _check_expr(self, expr: A.Expr, scope: _Scope) -> str:
        """Check an expression; returns the kind of value it denotes."""
        check = _CHECK_EXPR.get(type(expr))
        if check is None:
            raise SemanticError(f"unknown expression {type(expr).__name__}",
                                expr.loc)
        return check(self, expr, scope)

    def _check_num(self, expr: A.Num, scope: _Scope) -> str:
        return SCALAR

    def _check_var(self, expr: A.Var, scope: _Scope) -> str:
        kind = scope.lookup(expr.name)
        if kind is None:
            raise SemanticError(f"undefined name {expr.name!r}", expr.loc)
        return kind

    def _check_binop(self, expr: A.BinOp, scope: _Scope) -> str:
        self._check_expr(expr.left, scope)
        self._check_expr(expr.right, scope)
        return SCALAR

    def _check_unop(self, expr: A.UnOp, scope: _Scope) -> str:
        self._check_expr(expr.operand, scope)
        return SCALAR

    def _check_ifexp(self, expr: A.IfExp, scope: _Scope) -> str:
        self._check_expr(expr.cond, scope)
        k1 = self._check_expr(expr.then, scope)
        k2 = self._check_expr(expr.other, scope)
        if ARRAY in (k1, k2):
            return UNKNOWN
        return SCALAR

    def _check_index(self, expr: A.Index, scope: _Scope) -> str:
        kind = scope.lookup(expr.array)
        if kind is None:
            raise SemanticError(f"undefined array {expr.array!r}", expr.loc)
        if kind == SCALAR:
            raise SemanticError(
                f"{expr.array!r} is a scalar, not an array", expr.loc)
        if not expr.indices:
            raise SemanticError("empty subscript", expr.loc)
        for idx in expr.indices:
            self._check_expr(idx, scope)
        return SCALAR

    def _check_call(self, call: A.Call, scope: _Scope) -> str:
        name = call.name
        for arg in call.args:
            self._check_expr(arg, scope)

        if name in A.ALLOC_BUILTINS:
            if name == "matrix" and len(call.args) != 2:
                raise SemanticError("matrix() takes exactly 2 dimensions",
                                    call.loc)
            if not 1 <= len(call.args) <= 3:
                raise SemanticError(
                    "array() takes 1 to 3 dimensions", call.loc)
            return ARRAY

        if name in A.UNARY_BUILTINS:
            if len(call.args) != 1:
                raise SemanticError(f"{name}() takes exactly 1 argument",
                                    call.loc)
            return SCALAR

        if name in A.BINARY_BUILTINS:
            if len(call.args) != 2:
                raise SemanticError(f"{name}() takes exactly 2 arguments",
                                    call.loc)
            return SCALAR

        fn = self.info.functions.get(name)
        if fn is None:
            raise SemanticError(f"call to undefined function {name!r}",
                                call.loc)
        if len(call.args) != fn.arity:
            raise SemanticError(
                f"{name}() takes {fn.arity} argument(s), got {len(call.args)}",
                call.loc,
            )
        assert self.current is not None
        self.current.calls.add(name)
        return UNKNOWN


# Node class -> its check, looked up by ``type(node)``: every AST node
# class is a leaf, so the exact type is the whole decision.
_CHECK_STMT = {
    A.Bind: _Analyzer._check_bind,
    A.NextBind: _Analyzer._check_next,
    A.ArrayWrite: _Analyzer._check_write,
    A.For: _Analyzer._check_for,
    A.While: _Analyzer._check_while,
    A.If: _Analyzer._check_if,
    A.Return: _Analyzer._check_return,
}
_CHECK_EXPR = {
    A.Num: _Analyzer._check_num,
    A.Var: _Analyzer._check_var,
    A.BinOp: _Analyzer._check_binop,
    A.UnOp: _Analyzer._check_unop,
    A.IfExp: _Analyzer._check_ifexp,
    A.Index: _Analyzer._check_index,
    A.Call: _Analyzer._check_call,
}


def analyze(program: A.Program) -> ProgramInfo:
    """Validate ``program`` and decorate loop nodes with carried vars."""
    return _Analyzer(program).run()
