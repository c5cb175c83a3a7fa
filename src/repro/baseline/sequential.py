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
against, and — through the pluggable :class:`Clock` and the loop seams —
the substrate of the Pingali & Rogers static baseline and of the SPMD
core every ``parallel`` worker and ``dist`` node runs.

The program is decoded once, not re-discovered per evaluation: the first
call of a function compiles it into nested closures over a flat slot
frame (see :class:`Interpreter`), as ``sim/decode.py`` does for SP
templates.  The cost model is decided there too: with a clock each
closure charges exactly what the retired tree walker did, in its order
(``tests/baseline/reference_fingerprint.json`` holds ``seq`` and
``static`` to its bits); without one — the SPMD core, whose substrates
report wall time — it is built without the charge and only evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import (
    ExecutionError,
    MissingWriteError,
    SingleAssignmentViolation,
)
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.arrays import flat_size, offset_fn
from repro.runtime.values import ArrayValue
from repro.sim import timing as T
from repro.sim.timing import _BIN_COSTS, _UN_COSTS
from repro.translator.isa import BINARY_FUNCS, UNARY_FUNCS

# Native (no-overhead) cost constants, microseconds.
ARRAY_READ = T.INT_MUL + T.INT_ADD + T.MEM_READ        # 1.8
ARRAY_WRITE = T.INT_MUL + T.INT_ADD + T.MEM_WRITE      # 1.9
LOOP_ITER = T.INT_ADD + T.INT_CMP + T.INT_CMP          # inc + cmp + branch
CALL = 2 * T.CONTEXT_SWITCH                            # CALL + RET
BRANCH = T.INT_CMP

_ABSENT = object()
_UNSET = object()  # a ``next`` slot no branch of this iteration has assigned


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

    __slots__ = ("array_id", "dims", "offset", "cells")

    _next_id = 1

    def __init__(self, dims: tuple[int, ...]) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ExecutionError(f"bad array dimensions {dims!r}")
        self.array_id = SeqArray._next_id
        SeqArray._next_id += 1
        self.dims = dims
        self.offset = offset_fn(self.array_id, dims)
        self.cells: list[Any] = [_ABSENT] * flat_size(dims)

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


@dataclass
class SeqResult:
    value: Any
    time_us: float | None  # None: the substrate keeps no modeled time

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


class Scopes:
    """Compile-time lexical scopes of one function.  Every (scope, name)
    pair ``lang/semantics.py`` checked gets its own slot of the call's
    flat frame; ``frame[0]`` is the call depth, parameters follow."""

    def __init__(self, params: list[str]) -> None:
        self.chain = [{p: k + 1 for k, p in enumerate(params)}]
        self.size = 1 + len(params)
        # Per enclosing loop, innermost last: ``next`` name -> pending slot.
        self.loops: list[dict[str, int]] = []

    def new_slot(self) -> int:
        self.size += 1
        return self.size - 1

    def slot_of(self, name: str) -> int:
        for scope in reversed(self.chain):
            if name in scope:
                return scope[name]
        raise ExecutionError(f"undefined name {name!r} (interpreter bug)")


@dataclass(slots=True)
class Loop:
    """One compiled ``for``: what the loop seams are handed."""

    descending: bool
    var: int          # frame slot of the index variable
    init: Callable    # frame -> first index
    limit: Callable   # frame -> last index
    body: Callable    # frame -> None: one iteration, ``next`` values applied
    # PartitionedInterpreter: the loop's code block and, when it is
    # distributed, its Range Filter's (array, fixed indices) operands.
    block: Any = None
    rf: tuple | None = None


class Interpreter:
    """Compile-once evaluator; ``clock=None`` compiles the cost model out.

    Each function is decoded, on its first call, into nested closures
    over a flat slot frame: names are resolved to slot indices, operator
    functions and cost pairs looked up, hooks bound — once, in the
    ``compile_*`` methods, which are the only code that inspects AST
    node classes.  Running a program executes closures only.

    The array hooks (:meth:`on_alloc`, :meth:`on_array_read`,
    :meth:`on_array_write`) and the loop seams (:meth:`run_for`,
    :meth:`run_for_range`, :meth:`run_iteration`, handed the compiled
    :class:`Loop` and the activation's frame) are the override points
    for the static baseline and the SPMD core.
    """

    def __init__(self, program: A.Program, clock: Clock | None = None,
                 entry: str = "main") -> None:
        self.program = program
        self.clock = clock  # None: this substrate keeps no modeled time
        self.entry = entry
        # Nested closures burn a few Python frames per IdLite call; keep
        # the guard comfortably below CPython's own recursion limit.
        self.max_depth = 150
        # name -> (frame size, body).  Filled on first call, never here:
        # the closures capture the bound hooks, which a subclass's
        # ``__init__`` has yet to finish setting up.
        self.compiled: dict[str, tuple[int, Callable]] = {}
        # Classes already seen to pass :func:`is_istructure`.
        self.array_types: set[type] = set()

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
        time_us = None if self.clock is None else self.clock.finish_time()
        return SeqResult(value=value, time_us=time_us)

    def call_function(self, fn: A.Function, args: list[Any], depth: int) -> Any:
        if depth > self.max_depth:
            raise ExecutionError(f"call depth over {self.max_depth}")
        if self.clock is not None:
            self.clock.charge(CALL)
        code = self.compiled.get(fn.name)
        if code is None:
            scopes = Scopes(fn.params)
            body = self.compile_body(fn.body, scopes)  # grows scopes.size
            code = self.compiled[fn.name] = (scopes.size, body)
        size, body = code
        frame = [depth, *args]
        frame += [None] * (size - len(frame))
        value = body(frame)
        return 0 if value is None else value

    # -- statements: ``frame -> returned value, or None`` -------------------

    def compile_body(self, body: list[A.Stmt], sc: Scopes,
                     scope: dict | None = None) -> Callable:
        """A statement list, in a lexical scope of its own when ``scope``
        (its initial names) is given."""
        if scope is not None:
            sc.chain.append(scope)
        stmts = [self.compile_stmt(stmt, sc) for stmt in body]
        if scope is not None:
            sc.chain.pop()
        if len(stmts) == 1:
            return stmts[0]
        if len(stmts) == 2:
            first, second = stmts

            def run(frame):
                value = first(frame)
                return second(frame) if value is None else value
            return run

        def run(frame):
            for stmt in stmts:
                value = stmt(frame)
                if value is not None:  # a ``return`` ran
                    return value
        return run

    def compile_stmt(self, stmt: A.Stmt, sc: Scopes) -> Callable:
        if isinstance(stmt, (A.Bind, A.NextBind)):
            value = self.compile_expr(stmt.value, sc)  # before the name binds
            # A binding names a slot of the innermost scope; a ``next``,
            # a pending slot of the innermost loop.
            if isinstance(stmt, A.Bind):
                names = sc.chain[-1]
            elif sc.loops:
                names = sc.loops[-1]
            else:
                raise ExecutionError("'next' outside loop (interpreter bug)")
            slot = names.get(stmt.name)
            if slot is None:
                slot = names[stmt.name] = sc.new_slot()

            def run(frame):
                frame[slot] = value(frame)
            return run
        if isinstance(stmt, A.ArrayWrite):
            slot, name = sc.slot_of(stmt.array), stmt.array
            indices = self.compile_indices(stmt.indices, sc)
            value = self.compile_expr(stmt.value, sc)
            write = self.on_array_write
            known, check = self.array_types, self.check_array
            if self.clock is None:
                def run(frame):
                    arr = frame[slot]
                    if type(arr) not in known:
                        check(arr, name)
                    write(arr, indices(frame), value(frame))
                return run
            charge = self.clock.charge

            def run(frame):
                arr = frame[slot]
                if type(arr) not in known:
                    check(arr, name)
                at, new = indices(frame), value(frame)
                charge(ARRAY_WRITE)
                write(arr, at, new)
            return run
        if isinstance(stmt, A.If):
            return self.branch(self.compile_expr(stmt.cond, sc),
                               self.compile_body(stmt.then_body, sc, {}),
                               self.compile_body(stmt.else_body, sc, {}))
        if isinstance(stmt, A.Return):
            return self.compile_expr(stmt.value, sc)
        if isinstance(stmt, A.For):
            loop, run_for = self.compile_for(stmt, sc), self.run_for
            return lambda frame: run_for(loop, frame)
        if isinstance(stmt, A.While):
            cond = self.compile_expr(stmt.cond, sc)
            body = self.compile_loop_body(stmt.body, sc, {})
            runaway = "while loop ran 10M iterations"
            if self.clock is None:
                def run(frame):
                    guard = 0
                    while cond(frame):
                        guard += 1
                        if guard > 10_000_000:
                            raise ExecutionError(runaway)
                        body(frame)
                return run
            charge = self.clock.charge

            def run(frame):
                guard = 0
                while True:
                    charge(BRANCH)
                    if not cond(frame):
                        return
                    guard += 1
                    if guard > 10_000_000:
                        raise ExecutionError(runaway)
                    body(frame)
            return run
        raise ExecutionError(f"unknown statement {type(stmt).__name__}")

    # -- loops ----------------------------------------------------------

    def compile_for(self, stmt: A.For, sc: Scopes) -> Loop:
        init = self.compile_expr(stmt.init, sc)
        limit = self.compile_expr(stmt.limit, sc)
        var = sc.new_slot()
        body = self.compile_loop_body(stmt.body, sc, {stmt.var: var})
        return Loop(stmt.descending, var, init, limit, body)

    def compile_loop_body(self, body: list[A.Stmt], sc: Scopes,
                          scope: dict) -> Callable:
        """One iteration of a loop: run the body, then let the ``next``
        values the taken branches assigned replace the carried variables
        (each resolved where the loop statement stands)."""
        sc.loops.append({})
        code = self.compile_body(body, sc, scope)
        carried = [(pending, sc.slot_of(name))
                   for name, pending in sc.loops.pop().items()]
        if not carried:
            return code

        def iteration(frame):
            for pending, _ in carried:
                frame[pending] = _UNSET
            code(frame)
            for pending, slot in carried:
                if frame[pending] is not _UNSET:
                    frame[slot] = frame[pending]
        return iteration

    def run_for(self, loop: Loop, frame: list) -> None:
        self.run_for_range(loop, frame, loop.init(frame), loop.limit(frame),
                           -1 if loop.descending else 1)

    def run_for_range(self, loop: Loop, frame: list,
                      init: int, limit: int, step: int) -> None:
        run_iteration = self.run_iteration
        i = init  # any number: ``for i = 1.5 to n`` is a program too
        if self.clock is None:
            while (i >= limit) if step < 0 else (i <= limit):
                run_iteration(loop, frame, i)
                i += step
            return
        charge = self.clock.charge
        while (i >= limit) if step < 0 else (i <= limit):
            charge(LOOP_ITER)
            run_iteration(loop, frame, i)
            i += step

    def run_iteration(self, loop: Loop, frame: list, i: int) -> None:
        frame[loop.var] = i
        loop.body(frame)

    # -- expressions: ``frame -> value`` -------------------------------------

    def compile_expr(self, expr: A.Expr, sc: Scopes) -> Callable:
        if isinstance(expr, A.Num):
            value = expr.value
            return lambda frame: value
        if isinstance(expr, A.Var):
            return itemgetter(sc.slot_of(expr.name))
        if isinstance(expr, A.BinOp):
            return self.compile_binary(expr.op, expr.left, expr.right, sc,
                                       expr.loc)
        if isinstance(expr, A.UnOp):
            return self.compile_unary(expr.op, expr.operand, sc)
        if isinstance(expr, A.IfExp):
            return self.branch(self.compile_expr(expr.cond, sc),
                               self.compile_expr(expr.then, sc),
                               self.compile_expr(expr.other, sc))
        if isinstance(expr, A.Index):
            slot, name = sc.slot_of(expr.array), expr.array
            indices = self.compile_indices(expr.indices, sc)
            known, check = self.array_types, self.check_array
            if self.clock is None:  # no read hook either: the handle
                def ev(frame):
                    arr = frame[slot]
                    if type(arr) not in known:
                        check(arr, name)
                    return arr.read(indices(frame))
                return ev
            read, charge = self.on_array_read, self.clock.charge

            def ev(frame):
                arr = frame[slot]
                if type(arr) not in known:
                    check(arr, name)
                at = indices(frame)
                charge(ARRAY_READ)
                return read(arr, at)
            return ev
        if isinstance(expr, A.Call):
            return self.compile_call(expr, sc)
        raise ExecutionError(f"unknown expression {type(expr).__name__}")

    def compile_binary(self, op: str, left: A.Expr, right: A.Expr,
                       sc: Scopes, loc=None) -> Callable:
        left, right = self.compile_expr(left, sc), self.compile_expr(right, sc)
        (fcost, icost), fn = _BIN_COSTS[op], BINARY_FUNCS[op]
        if self.clock is None:  # evaluate, and nothing else
            def ev(frame):
                a, b = left(frame), right(frame)
                try:
                    return fn(a, b)
                except TypeError as exc:
                    if loc is None:
                        raise
                    raise ExecutionError(f"{loc}: {op}: {exc}") from None
            return ev
        charge = self.clock.charge

        def ev(frame):
            a = left(frame)
            b = right(frame)
            charge(fcost if isinstance(a, float) or isinstance(b, float)
                   else icost)
            try:
                return fn(a, b)
            except TypeError as exc:
                if loc is None:  # a builtin's (min, max) goes up as it is
                    raise
                raise ExecutionError(f"{loc}: {op}: {exc}") from None
        return ev

    def compile_unary(self, op: str, operand: A.Expr, sc: Scopes) -> Callable:
        operand = self.compile_expr(operand, sc)
        (fcost, icost), fn = _UN_COSTS[op], UNARY_FUNCS[op]
        if self.clock is None:
            return lambda frame: fn(operand(frame))
        charge = self.clock.charge

        def ev(frame):
            a = operand(frame)
            charge(fcost if isinstance(a, float) else icost)
            return fn(a)
        return ev

    def compile_call(self, call: A.Call, sc: Scopes) -> Callable:
        if call.name in A.UNARY_BUILTINS:
            return self.compile_unary(call.name, call.args[0], sc)
        if call.name in A.BINARY_BUILTINS:
            return self.compile_binary(call.name, *call.args, sc)
        args = [self.compile_expr(arg, sc) for arg in call.args]
        if call.name in A.ALLOC_BUILTINS:
            alloc = self.on_alloc
            if self.clock is None:
                return lambda frame: alloc(tuple([arg(frame) for arg in args]))
            charge = self.clock.charge

            def ev(frame):
                dims = tuple([arg(frame) for arg in args])
                charge(T.ALLOC_ARRAY)
                return alloc(dims)
            return ev
        fn = self.program.functions.get(call.name)
        if fn is None:
            raise ExecutionError(f"call to unknown {call.name!r}")
        invoke = self.call_function
        return lambda frame: invoke(fn, [arg(frame) for arg in args],
                                    frame[0] + 1)

    def branch(self, cond: Callable, then: Callable,
               other: Callable) -> Callable:
        """``if`` as a statement or as an expression: one compare, then
        whatever the taken arm yields (a statement arm: its ``return``)."""
        if self.clock is None:
            return lambda frame: then(frame) if cond(frame) else other(frame)
        charge = self.clock.charge

        def run(frame):
            charge(BRANCH)
            return then(frame) if cond(frame) else other(frame)
        return run

    def check_array(self, arr, name: str) -> None:
        """Admit the class of ``arr`` as an array type, or reject ``arr``."""
        if not is_istructure(arr):
            raise ExecutionError(f"{name!r} is not an array")
        self.array_types.add(type(arr))

    def compile_indices(self, indices: list[A.Expr], sc: Scopes) -> Callable:
        """``frame -> index tuple`` (ranks 1 and 2 without the list)."""
        subs = [self.compile_expr(e, sc) for e in indices]
        if len(subs) == 1:
            only, = subs
            return lambda frame: (only(frame),)
        if len(subs) == 2:
            row, col = subs
            return lambda frame: (row(frame), col(frame))
        return lambda frame: tuple([sub(frame) for sub in subs])

    # -- array hooks (overridden by the static baseline and the SPMD core) --
    # Where an array and its elements live; the flat charge of the access
    # is the calling closure's, so no hook tests for a clock.  The read hook
    # is the clock-bearing interpreters' seam: without one, ``arr.read``.

    def on_alloc(self, dims: tuple[int, ...]) -> SeqArray:
        return SeqArray(dims)

    def on_array_read(self, arr: SeqArray, indices: tuple) -> Any:
        return arr.read(indices)

    def on_array_write(self, arr: SeqArray, indices: tuple, value: Any) -> None:
        arr.write(indices, value)


class PartitionedInterpreter(Interpreter):
    """An :class:`Interpreter` that consults the partitioned graph: which
    loops the Partitioner distributed and what their Range Filters read
    (the SPMD core in :mod:`repro.runtime.spmd`; the static baseline)."""

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 clock: Clock | None, entry: str = "main") -> None:
        super().__init__(program, clock=clock, entry=entry)
        # AST loop node -> its (partitioned) code block.
        self.block_of = {id(b.ast_ref): b for b in graph.loop_blocks()
                         if b.ast_ref is not None}

    def compile_for(self, stmt: A.For, sc: Scopes) -> Loop:
        loop = super().compile_for(stmt, sc)
        block = loop.block = self.block_of.get(id(stmt))
        if block is not None and block.distributed \
                and block.range_filter is not None:
            rf = block.range_filter
            loop.rf = (self._operand(block, rf.array_vid, sc),
                       tuple(self._operand(block, v, sc)
                             for v in rf.fixed_vids))
        return loop

    def range_filter_of(self, loop: Loop, frame: list):
        """``(block, array, fixed indices)`` when ``loop`` is a
        distributed loop with a Range Filter, else None."""
        if loop.rf is None:
            return None
        array, fixed = loop.rf
        return loop.block, array(frame), tuple(f(frame) for f in fixed)

    def _operand(self, block: ir.CodeBlock, vid: int, sc: Scopes) -> Callable:
        """``frame -> value`` of a Range-Filter operand.  Resolved while
        ``sc`` still stands at the ``for``: a name bound later in the
        same scope must not capture it."""
        d = block.defs[vid]
        if isinstance(d, ir.ConstDef):
            value = d.value
            return lambda frame: value
        if isinstance(d, (ir.ParamDef, ir.IndexDef)) and d.name:
            return itemgetter(sc.slot_of(d.name))
        raise ExecutionError(f"cannot resolve vid {vid} of {block.name}")


def run_sequential(program: A.Program, args: tuple = (),
                   entry: str = "main") -> SeqResult:
    """Run ``program`` on the sequential reference interpreter."""
    return Interpreter(program, Clock(), entry).run(args)
