"""Sequential reference interpreter — the "compiled C version" proxy.

Section 5.3.4 of the paper compares PODS running on one PE against "the
most efficient sequential version (written in a conventional language)"
and finds PODS roughly 2x slower (1.72 s vs 0.9 s for a 32x32
conduction).  This interpreter plays the sequential role: it executes the
same IdLite program with a *native* cost model — the same 80386/80387
arithmetic times, but none of the parallel machinery (no token matching,
no context switches, no presence bits, no page management):

* array access = offset multiply + add + load/store (no bounds or
  presence checks a C compiler would not emit);
* loop overhead = increment + compare + branch per iteration;
* function call = CALL/RET pair;
* scalar moves are free (register allocation).

It is also the semantic oracle the simulator's results are tested
against, and — through the pluggable :class:`Clock` — the substrate of
the Pingali & Rogers static baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import (
    BoundsViolation,
    ExecutionError,
    MissingWriteError,
    SingleAssignmentViolation,
)
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.values import ArrayValue
from repro.sim import timing as T

# Native (no-overhead) cost constants, microseconds.
ARRAY_READ = T.INT_MUL + T.INT_ADD + T.MEM_READ        # 1.8
ARRAY_WRITE = T.INT_MUL + T.INT_ADD + T.MEM_WRITE      # 1.9
LOOP_ITER = T.INT_ADD + T.INT_CMP + T.INT_CMP          # inc + cmp + branch
CALL = 2 * T.CONTEXT_SWITCH                            # CALL + RET
BRANCH = T.INT_CMP

_ABSENT = object()


class Clock:
    """Accumulates modeled execution time.  Subclasses may attribute
    costs to multiple PEs (see the static baseline)."""

    def __init__(self) -> None:
        self.time = 0.0

    def charge(self, cost: float) -> None:
        self.time += cost

    def finish_time(self) -> float:
        return self.time


class SeqArray:
    """A host-side I-structure: plain storage + single assignment."""

    __slots__ = ("array_id", "dims", "strides", "cells")

    _next_id = 1

    def __init__(self, dims: tuple[int, ...]) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ExecutionError(f"bad array dimensions {dims!r}")
        self.array_id = SeqArray._next_id
        SeqArray._next_id += 1
        self.dims = dims
        strides = [1] * len(dims)
        for k in range(len(dims) - 2, -1, -1):
            strides[k] = strides[k + 1] * dims[k + 1]
        self.strides = tuple(strides)
        total = 1
        for d in dims:
            total *= d
        self.cells: list[Any] = [_ABSENT] * total

    def offset(self, indices: tuple[int, ...]) -> int:
        if len(indices) != len(self.dims):
            raise BoundsViolation(self.array_id, indices, self.dims)
        off = 0
        for idx, dim, stride in zip(indices, self.dims, self.strides):
            if not isinstance(idx, int) or idx < 1 or idx > dim:
                raise BoundsViolation(self.array_id, indices, self.dims)
            off += (idx - 1) * stride
        return off

    def read(self, indices: tuple[int, ...]) -> Any:
        value = self.cells[self.offset(indices)]
        if value is _ABSENT:
            raise MissingWriteError(self.array_id, indices)
        return value

    def write(self, indices: tuple[int, ...], value: Any) -> int:
        off = self.offset(indices)
        if self.cells[off] is not _ABSENT:
            raise SingleAssignmentViolation(self.array_id, off)
        self.cells[off] = value
        return off

    def to_value(self) -> ArrayValue:
        flat = [None if c is _ABSENT else c for c in self.cells]
        return ArrayValue(self.dims, flat)


def is_istructure(obj) -> bool:
    """Duck-typed check for array-like values (SeqArray, ShmArray, ...)."""
    return callable(getattr(obj, "read", None)) and hasattr(obj, "dims")


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


@dataclass
class SeqResult:
    value: Any
    time_us: float
    op_count: int = 0

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


class Interpreter:
    """Tree-walking evaluator with a cost clock.

    The array hooks (:meth:`on_array_read`, :meth:`on_array_write`) and
    the loop hook (:meth:`run_for`) are override points for the static
    baseline.
    """

    def __init__(self, program: A.Program, clock: Clock | None = None,
                 entry: str = "main") -> None:
        self.program = program
        self.clock = clock or Clock()
        self.entry = entry
        self.op_count = 0
        # Each IdLite call burns several Python frames; keep the guard
        # comfortably below CPython's own recursion limit.
        self.max_depth = 150

    # -- entry ------------------------------------------------------------

    def run(self, args: tuple, materialize: bool = True) -> SeqResult:
        fn = self.program.functions.get(self.entry)
        if fn is None:
            raise ExecutionError(f"no function {self.entry!r}")
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{self.entry} expects {len(fn.params)} args, got {len(args)}")
        value = self.call_function(fn, list(args), depth=0)
        if materialize and is_istructure(value):
            value = value.to_value()
        return SeqResult(value=value, time_us=self.clock.finish_time(),
                         op_count=self.op_count)

    def call_function(self, fn: A.Function, args: list[Any], depth: int) -> Any:
        if depth > self.max_depth:
            raise ExecutionError(f"call depth over {self.max_depth}")
        self.clock.charge(CALL)
        env = [dict(zip(fn.params, args))]
        try:
            self.exec_body(fn.body, env, depth)
        except _Return as ret:
            return ret.value
        return 0

    # -- environments ---------------------------------------------------

    def lookup(self, env: list[dict], name: str) -> Any:
        for scope in reversed(env):
            if name in scope:
                return scope[name]
        raise ExecutionError(f"undefined name {name!r} (interpreter bug)")

    def rebind(self, env: list[dict], name: str, value: Any) -> None:
        for scope in reversed(env):
            if name in scope:
                scope[name] = value
                return
        raise ExecutionError(f"cannot rebind unknown {name!r}")

    # -- statements -----------------------------------------------------

    def exec_body(self, body: list[A.Stmt], env: list[dict], depth: int,
                  pending_next: dict | None = None) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env, depth, pending_next)

    def exec_stmt(self, stmt: A.Stmt, env: list[dict], depth: int,
                  pending_next: dict | None) -> None:
        if isinstance(stmt, A.Bind):
            env[-1][stmt.name] = self.eval(stmt.value, env, depth)
            return
        if isinstance(stmt, A.NextBind):
            if pending_next is None:
                raise ExecutionError("'next' outside loop (interpreter bug)")
            pending_next[stmt.name] = self.eval(stmt.value, env, depth)
            return
        if isinstance(stmt, A.ArrayWrite):
            arr = self.lookup(env, stmt.array)
            if not is_istructure(arr):
                raise ExecutionError(f"{stmt.array!r} is not an array")
            indices = tuple(self.eval(e, env, depth) for e in stmt.indices)
            value = self.eval(stmt.value, env, depth)
            self.on_array_write(arr, indices, value)
            return
        if isinstance(stmt, A.If):
            self.clock.charge(BRANCH)
            cond = self.eval(stmt.cond, env, depth)
            body = stmt.then_body if cond else stmt.else_body
            env.append({})
            try:
                self.exec_body(body, env, depth, pending_next)
            finally:
                env.pop()
            return
        if isinstance(stmt, A.Return):
            raise _Return(self.eval(stmt.value, env, depth))
        if isinstance(stmt, A.For):
            self.run_for(stmt, env, depth)
            return
        if isinstance(stmt, A.While):
            self.run_while(stmt, env, depth)
            return
        raise ExecutionError(f"unknown statement {type(stmt).__name__}")

    # -- loops ----------------------------------------------------------

    def run_for(self, stmt: A.For, env: list[dict], depth: int) -> None:
        init = self.eval(stmt.init, env, depth)
        limit = self.eval(stmt.limit, env, depth)
        step = -1 if stmt.descending else 1
        self.run_for_range(stmt, env, depth, init, limit, step)

    def run_for_range(self, stmt: A.For, env: list[dict], depth: int,
                      init: int, limit: int, step: int) -> None:
        i = init
        while (i >= limit) if step < 0 else (i <= limit):
            self.clock.charge(LOOP_ITER)
            self.run_iteration(stmt, env, depth, i)
            i += step

    def run_iteration(self, stmt: A.For, env: list[dict], depth: int,
                      i: int) -> None:
        pending: dict[str, Any] = {}
        env.append({stmt.var: i})
        try:
            self.exec_body(stmt.body, env, depth, pending)
        finally:
            env.pop()
        for name, value in pending.items():
            self.rebind(env, name, value)

    def run_while(self, stmt: A.While, env: list[dict], depth: int) -> None:
        guard = 0
        while True:
            self.clock.charge(BRANCH)
            if not self.eval(stmt.cond, env, depth):
                return
            guard += 1
            if guard > 10_000_000:
                raise ExecutionError("while loop ran 10M iterations")
            pending: dict[str, Any] = {}
            env.append({})
            try:
                self.exec_body(stmt.body, env, depth, pending)
            finally:
                env.pop()
            for name, value in pending.items():
                self.rebind(env, name, value)

    # -- expressions -------------------------------------------------------

    def eval(self, expr: A.Expr, env: list[dict], depth: int) -> Any:
        self.op_count += 1

        if isinstance(expr, A.Num):
            return expr.value
        if isinstance(expr, A.Var):
            return self.lookup(env, expr.name)
        if isinstance(expr, A.BinOp):
            left = self.eval(expr.left, env, depth)
            right = self.eval(expr.right, env, depth)
            self.clock.charge(T.binop_cost(expr.op, left, right))
            from repro.translator.isa import BINARY_FUNCS

            try:
                return BINARY_FUNCS[expr.op](left, right)
            except TypeError as exc:
                raise ExecutionError(f"{expr.loc}: {expr.op}: {exc}") from None
        if isinstance(expr, A.UnOp):
            operand = self.eval(expr.operand, env, depth)
            self.clock.charge(T.unop_cost(expr.op, operand))
            from repro.translator.isa import UNARY_FUNCS

            return UNARY_FUNCS[expr.op](operand)
        if isinstance(expr, A.IfExp):
            self.clock.charge(BRANCH)
            if self.eval(expr.cond, env, depth):
                return self.eval(expr.then, env, depth)
            return self.eval(expr.other, env, depth)
        if isinstance(expr, A.Index):
            arr = self.lookup(env, expr.array)
            if not is_istructure(arr):
                raise ExecutionError(f"{expr.array!r} is not an array")
            indices = tuple(self.eval(e, env, depth) for e in expr.indices)
            return self.on_array_read(arr, indices)
        if isinstance(expr, A.Call):
            return self.eval_call(expr, env, depth)
        raise ExecutionError(f"unknown expression {type(expr).__name__}")

    def eval_call(self, call: A.Call, env: list[dict], depth: int) -> Any:
        args = [self.eval(a, env, depth) for a in call.args]
        if call.name in A.ALLOC_BUILTINS:
            return self.on_alloc(tuple(args))
        if call.name in A.UNARY_BUILTINS:
            from repro.translator.isa import UNARY_FUNCS

            self.clock.charge(T.unop_cost(call.name, args[0]))
            return UNARY_FUNCS[call.name](args[0])
        if call.name in A.BINARY_BUILTINS:
            from repro.translator.isa import BINARY_FUNCS

            self.clock.charge(T.binop_cost(call.name, args[0], args[1]))
            return BINARY_FUNCS[call.name](args[0], args[1])
        fn = self.program.functions.get(call.name)
        if fn is None:
            raise ExecutionError(f"call to unknown {call.name!r}")
        return self.call_function(fn, args, depth + 1)

    # -- array hooks (overridden by the static baseline) ----------------

    def on_alloc(self, dims: tuple[int, ...]) -> SeqArray:
        self.clock.charge(T.ALLOC_ARRAY)
        return SeqArray(dims)

    def on_array_read(self, arr: SeqArray, indices: tuple) -> Any:
        self.clock.charge(ARRAY_READ)
        return arr.read(indices)

    def on_array_write(self, arr: SeqArray, indices: tuple, value: Any) -> None:
        self.clock.charge(ARRAY_WRITE)
        arr.write(indices, value)


class PartitionedInterpreter(Interpreter):
    """An :class:`Interpreter` that consults the partitioned graph: which
    loops the Partitioner distributed and what their Range Filters read
    (the SPMD core in :mod:`repro.runtime.spmd`; the static baseline)."""

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 clock: Clock, entry: str = "main") -> None:
        super().__init__(program, clock=clock, entry=entry)
        # AST loop node -> its (partitioned) code block.
        self.block_of = {id(b.ast_ref): b for b in graph.loop_blocks()
                         if b.ast_ref is not None}

    def range_filter_of(self, stmt: A.For, env: list[dict]):
        """``(block, array, fixed indices)`` when ``stmt`` is a
        distributed loop with a Range Filter, else None."""
        block = self.block_of.get(id(stmt))
        if block is None or not block.distributed \
                or block.range_filter is None:
            return None
        rf = block.range_filter
        return (block, self._resolve_vid(block, rf.array_vid, env),
                tuple(self._resolve_vid(block, v, env)
                      for v in rf.fixed_vids))

    def _resolve_vid(self, block: ir.CodeBlock, vid: int, env: list[dict]):
        d = block.defs[vid]
        if isinstance(d, ir.ConstDef):
            return d.value
        if isinstance(d, (ir.ParamDef, ir.IndexDef)) and d.name:
            return self.lookup(env, d.name)
        raise ExecutionError(f"cannot resolve vid {vid} of {block.name}")


def run_sequential(program: A.Program, args: tuple = (),
                   entry: str = "main") -> SeqResult:
    """Run ``program`` on the sequential reference interpreter."""
    return Interpreter(program, entry=entry).run(args)
