"""The front end's handler tables cover every node class they dispatch on.

The builder, semantic analysis, validator and translator look a handler
up by ``type(node)``.  That is only right while every AST node, region
item and def class is a leaf class with its own entry: a subclass, or a
new class missing from a table, would import cleanly and fail only when
a program that uses it compiles.
"""

from __future__ import annotations

import inspect
from importlib import import_module
from typing import get_args

from repro.graph import builder, ir
from repro.lang import ast_nodes as A
from repro.lang import semantics

# Both packages export a function under the module's name.
validate = import_module("repro.graph.validate")
translate = import_module("repro.translator.translate")

EXPRS = set(get_args(A.Expr))
STMTS = set(get_args(A.Stmt))
ITEMS = set(get_args(ir.Item))
DEFS = set(get_args(ir.Def))


def _classes(module, predicate):
    return {c for _, c in inspect.getmembers(module, inspect.isclass)
            if c.__module__ == module.__name__ and predicate(c)}


def test_every_ast_node_is_an_expression_or_statement_leaf():
    nodes = _classes(A, lambda c: issubclass(c, A.Node) and c is not A.Node)
    assert nodes == EXPRS | STMTS | {A.Function, A.Program}
    assert not EXPRS & STMTS
    for cls in nodes:
        assert cls.__subclasses__() == [], cls.__name__


def test_every_ir_item_and_def_is_a_leaf():
    assert _classes(ir, lambda c: c.__name__.endswith("Item")) == ITEMS
    assert _classes(ir, lambda c: c.__name__.endswith("Def")) == DEFS
    for cls in ITEMS | DEFS:
        assert cls.__subclasses__() == [], cls.__name__


def test_every_expression_and_statement_has_its_handlers():
    assert set(builder._BUILD_EXPR) == EXPRS
    assert set(semantics._CHECK_EXPR) == EXPRS
    assert set(builder._BUILD_STMT) == STMTS
    assert set(semantics._CHECK_STMT) == STMTS


def test_every_item_has_its_handlers():
    assert set(validate._CHECK_ITEM) == ITEMS
    assert set(translate._EMIT_ITEM) == ITEMS


def test_every_def_is_an_input_a_computed_value_or_an_item_result():
    computed = set(translate._EMIT_DEF)
    inputs = set(validate._INPUT_DEFS)
    results = {ir.JoinDef, ir.ResultDef}  # defined by an IfItem / InvokeItem
    assert computed == {ir.OpDef, ir.AllocDef, ir.ReadDef, ir.CallDef}
    assert not computed & inputs
    assert computed | inputs | results == DEFS
