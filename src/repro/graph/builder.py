"""AST -> dataflow graph compiler.

Each function and each loop nest level becomes a code block, matching the
subdivision "generated by the Id Nouveau compiler" that PODS adopts
(Section 3: "make each function a new SP and, within each function, make
each loop iteration level a separate SP").

Free variables of a loop body are *imported* into the loop block: the
builder discovers them lazily — when a name misses in the child scope it
is resolved in the parent, a new block parameter is created, and the
parent's value is recorded as an invoke argument (this models the data
tokens the L operator transmits into the new context).
"""

from __future__ import annotations

from repro.common.errors import GraphError
from repro.lang import ast_nodes as A
from repro.lang.semantics import analyze
from repro.graph import ir

_UNARY = {"sqrt", "abs", "float", "int"}
_BINARY = {"min", "max"}


class _BlockBuilder:
    """Builds one code block; chains to the enclosing block's builder."""

    def __init__(self, graph: ir.ProgramGraph, block: ir.CodeBlock,
                 parent: "_BlockBuilder | None") -> None:
        self.graph = graph
        self.block = block
        self.parent = parent
        self.env: dict[str, int] = {}
        # Parent-side vids to pass for lazily created import params,
        # parallel to the param order in which they were created.
        self.import_args: list[int] = []
        # The region items are appended to; the top of ``_regions``.
        self.region: ir.Region = block.body
        self._regions: list[ir.Region] = [block.body]

    # -- regions --------------------------------------------------------

    def push_region(self, region: ir.Region) -> None:
        self._regions.append(region)
        self.region = region

    def pop_region(self) -> None:
        self._regions.pop()
        self.region = self._regions[-1]

    # -- defs -----------------------------------------------------------

    def add_param(self, name: str) -> int:
        vid = self.block.new_vid(ir.ParamDef(self.block.num_params, name))
        self.block.num_params += 1
        return vid

    def add_computed(self, d: ir.Def) -> int:
        vid = self.block.new_vid(d)
        self.region.append(ir.ComputeItem(vid))
        return vid

    def const(self, value) -> int:
        return self.block.new_vid(ir.ConstDef(value))

    # -- name resolution --------------------------------------------------

    def lookup(self, name: str, loc) -> int:
        if name in self.env:
            return self.env[name]
        if self.parent is None:
            raise GraphError(f"{loc}: unresolved name {name!r} (builder bug)")
        parent_vid = self.parent.lookup(name, loc)
        vid = self.add_param(name)
        self.import_args.append(parent_vid)
        self.env[name] = vid
        return vid

    # -- expressions -------------------------------------------------------

    def build_expr(self, expr: A.Expr) -> int:
        build = _BUILD_EXPR.get(type(expr))
        if build is None:
            raise GraphError(f"unknown expression {type(expr).__name__}")
        return build(self, expr)

    def build_num(self, expr: A.Num) -> int:
        return self.const(expr.value)

    def build_var(self, expr: A.Var) -> int:
        return self.lookup(expr.name, expr.loc)

    def build_binop(self, expr: A.BinOp) -> int:
        left = self.build_expr(expr.left)
        right = self.build_expr(expr.right)
        return self.add_computed(ir.OpDef(expr.op, [left, right]))

    def build_unop(self, expr: A.UnOp) -> int:
        operand = self.build_expr(expr.operand)
        return self.add_computed(ir.OpDef(expr.op, [operand]))

    def build_index(self, expr: A.Index) -> int:
        array = self.lookup(expr.array, expr.loc)
        indices = [self.build_expr(e) for e in expr.indices]
        return self.add_computed(ir.ReadDef(array, indices))

    def build_ifexp(self, expr: A.IfExp) -> int:
        cond = self.build_expr(expr.cond)
        uid = self.block.new_uid()
        item = ir.IfItem(uid, cond, [], [])
        self.region.append(item)

        self.push_region(item.then_region)
        then_vid = self.build_expr(expr.then)
        self.pop_region()

        self.push_region(item.else_region)
        else_vid = self.build_expr(expr.other)
        self.pop_region()

        join = self.block.new_vid(ir.JoinDef(uid, then_vid, else_vid))
        item.joins.append(join)
        return join

    def build_call(self, call: A.Call) -> int:
        if call.name in A.ALLOC_BUILTINS:
            dims = [self.build_expr(e) for e in call.args]
            return self.add_computed(ir.AllocDef(dims, name=call.name))
        if call.name in _UNARY:
            arg = self.build_expr(call.args[0])
            return self.add_computed(ir.OpDef(call.name, [arg]))
        if call.name in _BINARY:
            args = [self.build_expr(e) for e in call.args]
            return self.add_computed(ir.OpDef(call.name, args))
        args = [self.build_expr(e) for e in call.args]
        return self.add_computed(ir.CallDef(call.name, args))

    # -- statements ----------------------------------------------------------

    def build_body(self, body: list[A.Stmt]) -> None:
        for stmt in body:
            build = _BUILD_STMT.get(type(stmt))
            if build is None:
                raise GraphError(f"unknown statement {type(stmt).__name__}")
            build(self, stmt)

    def build_bind(self, stmt: A.Bind) -> None:
        self.env[stmt.name] = self.build_expr(stmt.value)

    def build_next(self, stmt: A.NextBind) -> None:
        value = self.build_expr(stmt.value)
        k = self.block.carried_names.index(stmt.name)
        self.region.append(ir.NextItem(k, value))

    def build_write(self, stmt: A.ArrayWrite) -> None:
        array = self.lookup(stmt.array, stmt.loc)
        indices = [self.build_expr(e) for e in stmt.indices]
        value = self.build_expr(stmt.value)
        self.region.append(ir.WriteItem(array, indices, value))

    def build_if(self, stmt: A.If) -> None:
        cond = self.build_expr(stmt.cond)
        uid = self.block.new_uid()
        item = ir.IfItem(uid, cond, [], [])
        self.region.append(item)
        saved = dict(self.env)
        self.push_region(item.then_region)
        self.build_body(stmt.then_body)
        self.pop_region()
        self.env = dict(saved)
        self.push_region(item.else_region)
        self.build_body(stmt.else_body)
        self.pop_region()
        self.env = saved

    def build_return(self, stmt: A.Return) -> None:
        value = self.build_expr(stmt.value)
        self.region.append(ir.ReturnItem(value))

    def build_for(self, stmt: A.For) -> None:
        init = self.build_expr(stmt.init)
        limit = self.build_expr(stmt.limit)
        carried_inits = [self.lookup(name, stmt.loc) for name in stmt.carried]

        child = self.graph.new_block(
            f"{self.block.name}.for_{stmt.var}", ir.FOR,
            parent=self.block.block_id,
        )
        child.descending = stmt.descending
        child.carried_names = list(stmt.carried)
        child.ast_ref = stmt
        cb = _BlockBuilder(self.graph, child, self)

        child.init_param = cb.add_param("$init")
        child.limit_param = cb.add_param("$limit")
        for name in stmt.carried:
            vid = cb.add_param(name)
            child.carried_params.append(vid)
            cb.env[name] = vid
        child.index_vid = child.new_vid(ir.IndexDef(stmt.var))
        cb.env[stmt.var] = child.index_vid

        cb.build_body(stmt.body)

        uid = self.block.new_uid()
        args = [init, limit] + carried_inits + cb.import_args
        item = ir.InvokeItem(uid, child.block_id, args)
        for k, name in enumerate(stmt.carried):
            rvid = self.block.new_vid(ir.ResultDef(uid, k, name))
            item.results.append(rvid)
            self.env[name] = rvid
        self.region.append(item)

    def build_while(self, stmt: A.While) -> None:
        carried_inits = [self.lookup(name, stmt.loc) for name in stmt.carried]

        child = self.graph.new_block(
            f"{self.block.name}.while", ir.WHILE, parent=self.block.block_id)
        child.carried_names = list(stmt.carried)
        child.ast_ref = stmt
        cb = _BlockBuilder(self.graph, child, self)

        for name in stmt.carried:
            vid = cb.add_param(name)
            child.carried_params.append(vid)
            cb.env[name] = vid

        cb.push_region(child.cond_region)
        child.cond_vid = cb.build_expr(stmt.cond)
        cb.pop_region()

        cb.build_body(stmt.body)

        uid = self.block.new_uid()
        args = carried_inits + cb.import_args
        item = ir.InvokeItem(uid, child.block_id, args)
        for k, name in enumerate(stmt.carried):
            rvid = self.block.new_vid(ir.ResultDef(uid, k, name))
            item.results.append(rvid)
            self.env[name] = rvid
        self.region.append(item)


# Node class -> its handler, looked up by ``type(node)``: every AST
# node class is a leaf, so the exact type is the whole decision.
_BUILD_EXPR = {
    A.Num: _BlockBuilder.build_num,
    A.Var: _BlockBuilder.build_var,
    A.BinOp: _BlockBuilder.build_binop,
    A.UnOp: _BlockBuilder.build_unop,
    A.Index: _BlockBuilder.build_index,
    A.IfExp: _BlockBuilder.build_ifexp,
    A.Call: _BlockBuilder.build_call,
}
_BUILD_STMT = {
    A.Bind: _BlockBuilder.build_bind,
    A.NextBind: _BlockBuilder.build_next,
    A.ArrayWrite: _BlockBuilder.build_write,
    A.If: _BlockBuilder.build_if,
    A.Return: _BlockBuilder.build_return,
    A.For: _BlockBuilder.build_for,
    A.While: _BlockBuilder.build_while,
}


def build_graph(program: A.Program, entry: str = "main") -> ir.ProgramGraph:
    """Compile an analyzed AST into a :class:`ProgramGraph`.

    Runs semantic analysis first (it also fills the loops' carried-
    variable lists the builder relies on).
    """
    info = analyze(program)
    info.check_entry(entry)

    graph = ir.ProgramGraph(entry=entry, name=entry)
    # Create function blocks first so CallDefs can reference any of them.
    for fn in program.functions.values():
        block = graph.new_block(fn.name, ir.FUNCTION)
        graph.functions[fn.name] = block.block_id

    for fn in program.functions.values():
        block = graph.blocks[graph.functions[fn.name]]
        fb = _BlockBuilder(graph, block, None)
        for p in fn.params:
            fb.env[p] = fb.add_param(p)
        fb.build_body(fn.body)

    return graph
