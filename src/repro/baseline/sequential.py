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
against, and — through the pluggable :class:`Clock` and the Range-Filter
seam — the substrate of the Pingali & Rogers static baseline and of the
SPMD core every ``parallel`` worker and ``dist`` node runs.

The program is decoded once, not re-discovered per evaluation: the first
call of a function writes it out as Python source — one function over
locals, each expression a run of flat three-address statements, each
loop a Python ``for`` — which ``compile()`` turns into what every later
call runs (see :class:`Interpreter` and :class:`_Writer`), as
``sim/decode.py`` decodes SP templates once.  The cost model is decided
there too: with a clock the source charges exactly what the retired tree
walker did, in its order (``tests/baseline/reference_fingerprint.json``
holds ``seq`` and ``static`` to its bits); without one — the SPMD core,
whose substrates report wall time — no charge is written and the code
only evaluates, reading a present element of rank 1 or 2 inline: a probe
of what the handle has seen (:class:`~repro.runtime.arrays.Handle`),
through locals a Python ``for`` loads at its entry, its ``read`` only on
a miss.
"""

from __future__ import annotations

import linecache
import math
import operator
from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Any, Callable

from repro.common.errors import (
    ExecutionError,
    MissingWriteError,
    SingleAssignmentViolation,
)
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.arrays import (Handle, flat_size, index_fn, offset_fn,
                                  probe_source)
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

_UNSET = object()  # a ``next`` no branch of this iteration has assigned
# What the inline read probes of a handle, in the order ``_fields`` gives.
_PROBE_FIELDS = ("seen", "ext", "rows", "cols")


class Clock:
    """Accumulates modeled execution time, one cost after another.
    Subclasses may attribute costs to multiple PEs (see the static
    baseline)."""

    def __init__(self) -> None:
        self.time = 0.0

    def charge(self, *costs: float) -> None:
        for cost in costs:
            self.time += cost

    def finish_time(self) -> float:
        return self.time


# ``SeqArray.read`` after the index rule: the element, or the eager
# order's missing write.
_SEQ_READ = """\
value = cells[off]
if value is None:
    raise MissingWriteError(label, indices)
return value
"""


class SeqArray(Handle):
    """A host-side I-structure: plain storage + single assignment.  Its
    cells are what the inline read probes, absent as None (no program
    value is ever None).  Its ``read`` counts nothing: ``seq`` and
    ``static`` read through it, and the SPMD core never reports a
    private array's counters."""

    __slots__ = ("offset", "cells", "read")

    def __init__(self, ordinal: int, dims: tuple[int, ...]) -> None:
        super().__init__(ordinal, dims)
        self.offset = offset_fn(ordinal, dims)
        self.cells = cells = self.probe([None] * flat_size(dims))
        self.read = index_fn("read", ordinal, dims, _SEQ_READ, cells=cells,
                             MissingWriteError=MissingWriteError)

    def write(self, indices: tuple[int, ...], value: Any) -> int:
        off = self.offset(indices)
        if self.cells[off] is not None:
            raise SingleAssignmentViolation(self.ordinal, off)
        self.cells[off] = value
        return off

    def to_value(self) -> ArrayValue:
        return ArrayValue(self.dims, list(self.cells))


def is_istructure(obj) -> bool:
    """Whether ``obj`` is an array: a handle of any store (SeqArray,
    ShmArray, ...), all of which the inline read probes alike."""
    return isinstance(obj, Handle)


@dataclass
class SeqResult:
    value: Any
    time_us: float | None  # None: the substrate keeps no modeled time

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


def _span(first, last, step):
    """The indices of ``for i = first to last`` (``downto``: ``step``
    -1): a ``range`` over two ints, else :func:`_counting`."""
    if type(first) is int and type(last) is int:
        return range(first, last + step, step)
    return _counting(first, last, step)


def _counting(first, last, step):
    """Any number counts as a bound (``for i = 1.5 to n``), compared as
    it stands."""
    i = first
    while (i >= last) if step < 0 else (i <= last):
        yield i
        i += step


class Scopes:
    """Compile-time lexical scopes of one function.  Every (scope, name)
    pair ``lang/semantics.py`` checked gets its own slot, and each slot
    its own local of the generated code; slot 0 is the call depth,
    parameters follow."""

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


class Interpreter:
    """Compile-once evaluator; ``clock=None`` compiles the cost model out.

    Each function is written out, on its first call, as the source of one
    Python function over locals (:class:`_Writer`, the only code that
    inspects AST node classes), and ``compile()`` makes it what every
    later call runs.  Names are locals, expressions flat three-address
    statements, and a ``for`` is a Python ``for``; one with a Range
    Filter (:meth:`partition_of`) is two, the outer over the subranges
    :meth:`subranges` yields.

    The array hooks (:meth:`on_alloc`, :meth:`on_array_read`,
    :meth:`on_array_write`) and :meth:`subranges` are the override
    points for the static baseline and the SPMD core; the generated code
    calls them through its globals, bound on the first run.  An iteration
    is no seam: a subclass that must see one returns a callable from
    :meth:`iteration_hook`.
    """

    def __init__(self, program: A.Program, clock: Clock | None = None,
                 entry: str = "main") -> None:
        self.program = program
        self.clock = clock  # None: this substrate keeps no modeled time
        self.entry = entry
        # An IdLite call is one Python frame (a Range-Filter loop adds
        # none); the guard stays well below CPython's own recursion limit.
        self.max_depth = 150
        # The generated code's globals.  Built on the first run, never
        # here: they bind the hooks, which a subclass's ``__init__`` has
        # yet to finish setting up.
        self.namespace: dict[str, Any] | None = None
        self.fn_keys = {name: f"_f{k}"
                        for k, name in enumerate(program.functions)}
        self.serial = count()  # numbers the generated globals
        # Classes already seen to pass :func:`is_istructure`.
        self.array_types: set[type] = set()
        # The allocation ordinal of the last array allocated: every
        # array is named by its own.
        self.alloc_seq = 0

    # -- entry ------------------------------------------------------------

    def run(self, args: tuple, materialize: bool = True) -> SeqResult:
        fn = self.program.functions.get(self.entry)
        if fn is None:
            raise ExecutionError(f"no function {self.entry!r}")
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{self.entry} expects {len(fn.params)} args, got {len(args)}")
        if self.namespace is None:
            self.namespace = self.bind_namespace()
        value = self.namespace[self.fn_keys[self.entry]](0, *args)
        if materialize and is_istructure(value):
            value = value.to_value()
        time_us = None if self.clock is None else self.clock.finish_time()
        return SeqResult(value=value, time_us=time_us)

    def bind_namespace(self) -> dict[str, Any]:
        """The globals every generated function of this interpreter runs
        in: the hooks, the Range-Filter seam, the operator tables, and a
        stand-in per IdLite function that writes it on its first call."""
        ns = {"_Err": ExecutionError, "_UNSET": _UNSET, "_span": _span,
              "_known": self.array_types, "_check": self.check_array,
              "_fault": self.fault,
              "_alloc": self.on_alloc, "_write": self.on_array_write,
              "_rf": self.subranges}
        if self.clock is not None:
            ns["_charge"] = self.clock.charge
            ns["_read"] = self.on_array_read
        else:
            ns["_Handle"] = Handle
            ns["_fields"] = attrgetter(*_PROBE_FIELDS)
        ns.update(("_b" + op, fn) for op, fn in BINARY_FUNCS.items())
        ns.update(("_u" + op, fn) for op, fn in UNARY_FUNCS.items())
        for name, key in self.fn_keys.items():
            ns[key] = self.first_call(name)
        return ns

    def first_call(self, name: str) -> Callable:
        def first(*args):
            return self.generate(name)(*args)
        return first

    def generate(self, name: str) -> Callable:
        """Write the function ``name`` out, compile it into the namespace
        (replacing its stand-in) and return it.  Its source is registered
        with ``linecache`` under ``<idlite:NAME>``, so a traceback shows
        the generated line.  A function whose loops nest deeper than
        CPython compiles is the program's ``ExecutionError``."""
        source = _Writer(self, self.program.functions[name]).module()
        filename = f"<idlite:{name}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(keepends=True),
                                     filename)
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:
            if exc.msg != "too many statically nested blocks":
                raise
            raise ExecutionError(
                f"function {name!r} nests its loops too deep: its generated "
                "code passes CPython's limit of 20 statically nested "
                "blocks (a loop is one, a Range-Filter loop two)") from None
        exec(code, self.namespace)
        return self.namespace[self.fn_keys[name]]

    # -- what the writer asks (overridden by the partitioned interpreters) --

    def partition_of(self, stmt) -> tuple[Any, tuple | None]:
        """``(code block, Range-Filter operands)`` of the ``for`` ``stmt``,
        the operands — array first, then the fixed indices — each
        ``("n", name)`` or ``("k", constant)``, and None unless the loop
        is distributed with a Range Filter.  Nothing is partitioned here."""
        return None, None

    def iteration_hook(self, block) -> Callable | None:
        """A callable the generated code calls with the index at the top
        of every iteration of a ``for`` of code block ``block`` (None for
        an unpartitioned loop), or None: no call is written."""
        return None

    def writes_in_place(self) -> bool:
        """Whether a write lexically inside a Range-Filter loop's body
        calls the array's own ``write`` instead of
        :meth:`on_array_write` (asked only without a clock)."""
        return False

    # -- the Range-Filter seam -------------------------------------------

    def subranges(self, block, init, limit, array, *fixed):
        """The ``(first, last)`` pairs a Range-Filter ``for`` of code block
        ``block`` from ``init`` to ``limit`` runs, in order, its filter's
        array and fixed indices as given: here the whole range, once."""
        yield init, limit

    def check_array(self, arr, name: str) -> None:
        """Admit the class of ``arr`` as an array type, or reject ``arr``."""
        if not is_istructure(arr):
            raise ExecutionError(f"{name!r} is not an array") from None
        self.array_types.add(type(arr))

    def fault(self, exc: Exception, sites: dict[int, tuple]) -> None:
        """Raise the program's error for ``exc``, a ``TypeError`` or
        ``AttributeError`` caught in a generated function, when the line
        it came from is a site of one (``sites``, by line number): an
        operator's type error, re-raised naming its source location and
        operator, or an access of something that is not an array.
        Return otherwise: the caller re-raises ``exc`` as it is."""
        tb = exc.__traceback__
        site = sites.get(tb.tb_lineno)
        if site is None or not isinstance(exc, site[0]):
            return
        if site[0] is TypeError:
            raise ExecutionError(site[1] + str(exc)).with_traceback(tb) \
                from None
        self.check_array(tb.tb_frame.f_locals[site[1]], site[2])

    # -- array hooks (overridden by the static baseline and the SPMD core) --
    # Where an array and its elements live; the flat charge of the access
    # is the generated code's, so no hook tests for a clock.  The read hook
    # is the clock-bearing interpreters' seam: without one, ``arr.read``.

    def on_alloc(self, dims: tuple[int, ...]) -> SeqArray:
        self.alloc_seq += 1
        return SeqArray(self.alloc_seq, dims)

    def on_array_read(self, arr: SeqArray, indices: tuple) -> Any:
        return arr.read(indices)

    def on_array_write(self, arr: SeqArray, indices: tuple, value: Any) -> None:
        arr.write(indices, value)


# -- the source generator ---------------------------------------------------

# Operator-table entries written as Python operators: ``operator.add(a,
# b)`` is ``a + b``, the same result and the same ``TypeError`` text.
_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*",
          operator.lt: "<", operator.le: "<=", operator.gt: ">",
          operator.ge: ">=", operator.eq: "==", operator.ne: "!="}
_PREFIX = {operator.neg: "-", operator.not_: "not "}


def _arith(ka: type | None, kb: type | None) -> type | None:
    """The type of ``a + b`` (``-``, ``*``, ``//``, ``%``) for numbers
    of types ``ka`` and ``kb``; None when it depends on more."""
    if float in (ka, kb):
        return float
    return int if ka is not None and kb is not None else None


def _same(ka: type | None, kb: type | None) -> type | None:
    return ka if ka is kb else None


# What an operator's result is, from what its operands are (numbers of
# a known type, or None): how the writer knows, without a test at run
# time, which of an operator's two costs a later one charges.
_BIN_KIND = {"add": _arith, "sub": _arith, "mul": _arith, "idiv": _arith,
             "mod": _arith, "div": lambda ka, kb: float,
             "pow": lambda ka, kb: float if float in (ka, kb) else None,
             "min": _same, "max": _same,
             **dict.fromkeys(("lt", "le", "gt", "ge", "eq", "ne", "and",
                              "or"), lambda ka, kb: bool)}
_UN_KIND = {"neg": lambda k: int if k is bool else k,
            "abs": lambda k: int if k is bool else k,
            "not": lambda k: bool, "sqrt": lambda k: float,
            "float": lambda k: float, "int": lambda k: int}


class _Site(str):
    """A generated line whose exception of class ``fault[0]`` is the
    program's error (see :meth:`Interpreter.fault`)."""

    fault: tuple


class _Hoist:
    """One clock-less Python ``for`` being written: the handles its body
    probes, each with the locals its probe fields are loaded into at the
    loop's entry (and again after a miss), the local its hits are
    counted in, and what its probes test once, not per iteration (each
    source and its local; :func:`probe_source`).  Only a handle local
    bound before the loop (a slot below ``outer``) that no ``next`` in
    it may rebind (``carried``) is one, and only such a local or an
    ``int`` literal is a subscript the loop never changes; ``span`` is
    the loop's index with its bounds, least first, and their type
    tests.  (The writer spells these out as loops, not comprehensions:
    a comprehension is a frame of the run that writes the code.)"""

    __slots__ = ("outer", "carried", "span", "handles")

    def __init__(self, outer: int, carried: set[str]) -> None:
        self.outer = outer
        self.carried = carried
        self.span: tuple[str, str, str, str] | None = None
        self.handles: dict[str, tuple[dict[str, str], str,
                                      dict[str, str]]] = {}


class _Writer:
    """Writes one IdLite function out as Python source.

    What the closures of a tree-walking compiler decided per evaluation
    is decided here once: each slot is a local (``NAME_SLOT``; the call
    depth is ``_depth``), each operator one statement into a temporary
    (``_N``) or straight into the name it binds, a ``next`` a pending
    local applied at the end of the iteration.  With a clock, the
    charges are the reference interpreter's, in its order, each run of
    them one ``_charge`` call before the next line that may read the
    clock; without one, none is written.  A binary or unary operator's
    ``TypeError`` is re-raised as the program's ``ExecutionError``
    naming its source location and operator (a ``min`` / ``max`` one,
    which has no location, goes up as it is).  An array name is checked
    before its subscripts are evaluated; when they are plain names and
    constants, only a failed access checks it.  Both are decided after
    the fact, by one ``try`` around each function's body and the line
    the exception came from (:class:`_Site`), so no operator carries a
    ``try`` of its own.

    Without a clock, a Python ``for`` loads the probe fields of each
    handle its body reads into locals at its entry, and counts the
    probe's hits in a local it adds to the handle's ``reads`` after the
    loop (:class:`_Hoist`); and a write inside a Range-Filter body calls
    the array's ``write`` itself when the interpreter says so
    (:meth:`Interpreter.writes_in_place`).
    """

    def __init__(self, interp: Interpreter, fn: A.Function) -> None:
        self.interp = interp
        self.clock = interp.clock is not None
        self.in_place = not self.clock and interp.writes_in_place()
        self.bodies = 0  # Range-Filter loops being written
        self.fn = fn
        self.sc = Scopes(fn.params)
        self.names = {0: "_depth"}  # slot -> local
        for k, param in enumerate(fn.params):
            self.names[k + 1] = self.local(param, k + 1)
        # Atom -> its type, where the writer knows it: literals, ``for``
        # indices, and temporaries and names computed from them.
        self.kinds: dict[str, type] = {}
        self.indexes: set[int] = set()  # slots of ``for`` indices
        # Locals bound once per pass that no ``next`` reassigns: their
        # type is their expression's.
        self.steady: set[str] = set()
        self.carried = set(self.carried_names(fn.body))
        self.temps = count(1)
        self.loop_level = 0
        self.lines: list[str] = []  # the body, in the ``try`` around it
        self.indent = 2
        self.costs: list[str] = []  # charges not yet written out
        self.hoists: list[_Hoist] = []  # the open clock-less ``for``s

    def module(self) -> str:
        """The source of the function."""
        depth = self.interp.max_depth
        params = ", ".join(self.names[k]
                           for k in range(len(self.fn.params) + 1))
        lines = [f"def {self.interp.fn_keys[self.fn.name]}({params}):",
                 f"    if _depth > {depth}:",
                 f"        raise _Err('call depth over {depth}')"]
        if self.clock:
            lines.append(f"    _charge({CALL!r})")
        self.body(self.fn.body, None)
        self.flush()
        if not any(isinstance(line, _Site) for line in self.lines):
            return "\n".join(lines + [line[4:] for line in self.lines]) + "\n"
        key = self.global_({}, "sites")
        sites = self.interp.namespace[key]
        lines.append("    try:")
        for line in self.lines:
            if isinstance(line, _Site):
                sites[len(lines) + 1] = line.fault
            lines.append(line)
        lines += ["    except (TypeError, AttributeError) as exc:",
                  f"        _fault(exc, {key})",
                  "        raise", ""]
        return "\n".join(lines)

    # -- writing --------------------------------------------------------

    @staticmethod
    def local(name: str, slot: int) -> str:
        local = f"{name}_{slot}"
        return local if local.isascii() and local.isidentifier() \
            else f"v_{slot}"

    def emit(self, line: str, fault: tuple | None = None,
             pure: bool = False) -> None:
        """Write ``line``; unless it is ``pure`` — an operator or a copy,
        which neither reads the clock nor leaves the straight line —
        the charges made before it are written out first."""
        if not pure and self.costs:
            self.flush()
        line = "    " * self.indent + line
        if fault is not None:
            line = _Site(line)
            line.fault = fault
        self.lines.append(line)

    def global_(self, value: Any, stem: str) -> str:
        key = f"_{stem}{next(self.interp.serial)}"
        self.interp.namespace[key] = value
        return key

    def temp(self) -> str:
        return f"_{next(self.temps)}"

    def new_slot(self, name: str) -> int:
        slot = self.sc.new_slot()
        self.names[slot] = self.local(name, slot)
        return slot

    def open(self, header: str) -> int:
        """Emit a compound statement's ``header`` and indent its block."""
        self.emit(header)
        self.indent += 1
        return len(self.lines)

    def shut(self, mark: int) -> None:
        """End the block :meth:`open` began at ``mark``."""
        self.flush()
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1

    def charge(self, cost: float | str) -> None:
        """Charge ``cost`` (a number, or the source of one) at the next
        line that is not pure: one ``_charge`` call adds a run of costs
        one by one, in order, as separate calls would."""
        self.costs.append(cost if isinstance(cost, str) else repr(cost))

    def flush(self) -> None:
        costs, self.costs = self.costs, []
        if costs:
            self.emit(f"_charge({', '.join(costs)})", pure=True)

    def charge_op(self, costs: tuple[float, float], *atoms: str) -> None:
        """An operator's charge: its float cost when an operand is a
        float, else its integer cost — decided here where the writer
        knows the operands' types (:attr:`kinds`)."""
        fcost, icost = costs
        kinds = [self.kinds.get(atom) for atom in atoms]
        if fcost == icost or float in kinds:
            return self.charge(fcost)
        if None not in kinds:
            return self.charge(icost)
        test = " or ".join(f"isinstance({atom}, float)"
                           for atom, kind in zip(atoms, kinds) if kind is None)
        self.charge(f"{fcost!r} if {test} else {icost!r}")

    def guarded(self, line: str, loc, op: str) -> None:
        """``line``, its ``TypeError`` the program's error at ``loc``."""
        self.emit(line, None if loc is None else (TypeError, f"{loc}: {op}: "),
                  pure=True)

    def access(self, lines: list[str], arr: str, name: str, mark: int,
               operands: list[A.Expr]) -> None:
        """``lines``, an access of array local ``arr``: checked up front
        (at ``mark``, before the subscripts) when evaluating its
        ``operands`` may raise, else only when the access fails."""
        if len(self.lines) == mark or all(map(self.safe, operands)):
            for line in lines:
                self.emit(line, (AttributeError, arr, name))
            return
        pad = "    " * self.indent
        self.lines.insert(
            mark,
            f"{pad}if type({arr}) not in _known: _check({arr}, {name!r})")
        for line in lines:
            self.emit(line)

    def safe(self, e: A.Expr) -> bool:
        """Whether evaluating ``e`` cannot raise: ``+``, ``-``, ``*``,
        ``min`` or ``max`` of numbers — constants, ``for`` indices and
        names the writer knows the type of."""
        if type(e) is A.BinOp:
            return e.op in ("add", "sub", "mul") \
                and self.safe(e.left) and self.safe(e.right)
        if type(e) is A.Call:
            return e.name in A.BINARY_BUILTINS and all(map(self.safe, e.args))
        if type(e) is A.Var:
            slot = self.sc.slot_of(e.name)
            return slot in self.indexes or self.names[slot] in self.kinds
        return type(e) is A.Num

    # -- statements -----------------------------------------------------

    def body(self, stmts: list[A.Stmt], scope: dict | None) -> None:
        """A statement list, in a lexical scope of its own when ``scope``
        (its initial names) is given."""
        if scope is not None:
            self.sc.chain.append(scope)
        for stmt in stmts:
            _WRITE_STMT[type(stmt)](self, stmt)
        if scope is not None:
            self.sc.chain.pop()

    def store(self, names: dict[str, int], name: str, value: A.Expr) -> None:
        # The value is written before the name binds: a use of ``name``
        # in it is the enclosing one.
        slot = names.get(name)
        if slot is None:
            slot = self.new_slot(name)
            if names is self.sc.chain[-1] and name not in self.carried:
                self.steady.add(self.names[slot])
        target = self.names[slot]
        atom = self.expr(value, target)
        if atom != target:
            self.emit(f"{target} = {atom}", pure=True)
            self.typed(target, self.kinds.get(atom))
        names[name] = slot

    def typed(self, local: str, kind: type | None) -> None:
        """Note that ``local`` holds a ``kind``, where it stays one."""
        if kind is not None and (local in self.steady
                                 or local[1:].isdigit()):  # a temporary
            self.kinds[local] = kind

    @staticmethod
    def carried_names(stmts: list[A.Stmt]):
        """Every name a ``next`` in ``stmts`` carries."""
        for s in stmts:
            if type(s) in (A.For, A.While):
                yield from s.carried
                yield from _Writer.carried_names(s.body)
            elif type(s) is A.If:
                yield from _Writer.carried_names(s.then_body)
                yield from _Writer.carried_names(s.else_body)

    def write_bind(self, stmt: A.Bind) -> None:
        self.store(self.sc.chain[-1], stmt.name, stmt.value)

    def write_next(self, stmt: A.NextBind) -> None:
        if not self.sc.loops:
            raise ExecutionError("'next' outside loop (interpreter bug)")
        self.store(self.sc.loops[-1], stmt.name, stmt.value)

    def write_array_write(self, stmt: A.ArrayWrite) -> None:
        arr = self.names[self.sc.slot_of(stmt.array)]
        mark = len(self.lines)
        at = self.indices(stmt.indices)
        value = self.expr(stmt.value)
        if self.clock:
            self.charge(ARRAY_WRITE)
        line = (f"{arr}.write({at}, {value})" if self.in_place and self.bodies
                else f"_write({arr}, {at}, {value})")
        self.access([line], arr, stmt.array, mark,
                    [*stmt.indices, stmt.value])

    def write_if(self, stmt: A.If) -> None:
        if self.clock:
            self.charge(BRANCH)
        mark = self.open(f"if {self.expr(stmt.cond)}:")
        self.body(stmt.then_body, {})
        self.shut(mark)
        if stmt.else_body:
            mark = self.open("else:")
            self.body(stmt.else_body, {})
            self.shut(mark)

    def write_return(self, stmt: A.Return) -> None:
        if self.loop_level:
            raise ExecutionError("'return' inside a loop (interpreter bug)")
        self.emit(f"return {self.expr(stmt.value)}")

    def write_while(self, stmt: A.While) -> None:
        guard = self.temp()
        self.emit(f"{guard} = 0")
        mark = self.open("while True:")
        if self.clock:
            self.charge(BRANCH)
        self.emit(f"if not {self.expr(stmt.cond)}:")
        self.emit("    break")
        self.emit(f"{guard} += 1")
        self.emit(f"if {guard} > 10000000:")
        self.emit("    raise _Err('while loop ran 10M iterations')")
        self.loop_body(stmt.body, {})
        self.shut(mark)

    def write_for(self, stmt: A.For) -> None:
        first, last = self.expr(stmt.init), self.expr(stmt.limit)
        block, rf = self.interp.partition_of(stmt)
        hook = self.interp.iteration_hook(block)
        if hook is not None:
            hook = self.global_(hook, "hook")
        hoist = None if self.clock else _Hoist(
            self.sc.size, {*stmt.carried, *self.carried_names(stmt.body)})
        entry = len(self.lines)
        if hoist is not None:
            self.hoists.append(hoist)
        if rf is not None:
            # A Range-Filter loop runs over the subranges ``_rf`` yields,
            # its operands resolved where the ``for`` stands: a name
            # bound later in the same scope must not capture one.
            args = [self.global_(block, "block"), first, last]
            args += [self.names[self.sc.slot_of(v)] if kind == "n"
                     else repr(v) if type(v) is int
                     else self.global_(v, "k") for kind, v in rf]
            bounds = (self.temp(), self.temp())
            for bound, atom in zip(bounds, (first, last)):
                if self.kinds.get(atom) is int:  # so is every subrange's
                    self.kinds[bound] = int
            subranges = self.open(
                f"for {', '.join(bounds)} in _rf({', '.join(args)}):")
            first, last = bounds
            self.bodies += 1
        inner = len(self.lines)
        var = self.new_slot(stmt.var)
        self.indexes.add(var)
        index = self.names[var]
        if self.kinds.get(first) is not None:  # it counts from ``first``
            self.kinds[index] = self.kinds[first]
        if hoist is not None:
            # The range is tested again after a reload, so a bound a
            # ``next`` in the loop rebinds is no span's.
            lo, hi = (last, first) if stmt.descending else (first, last)
            typed = ""
            for bound, e in ((first, stmt.init), (last, stmt.limit)):
                if self.kinds.get(bound) is not int:
                    typed += f"type({bound}) is int and "
                if rf is None and type(e) is A.Var and e.name in hoist.carried:
                    typed = None
                    break
            if typed is not None:
                hoist.span = (index, lo, hi, typed)
        mark = self.open(f"for {index} in "
                         f"{self.indices_of(stmt, first, last)}:")
        if self.clock:
            self.charge(LOOP_ITER)
        if hook is not None:
            self.emit(f"{hook}({index})")
        self.loop_body(stmt.body, {stmt.var: var})
        self.shut(mark)
        if rf is not None:
            self.bodies -= 1
            self.shut(subranges)
        if hoist is not None:
            self.hoists.pop()
            self.hoisted(hoist, entry, inner, self.indent + (rf is not None))

    def hoisted(self, hoist: _Hoist, entry: int, inner: int,
                depth: int) -> None:
        """Load the probe fields of the handles ``hoist`` holds before
        the ``for`` at line ``entry`` — a non-array's fail every probe,
        so its access fails as it would have — and count their hits
        into ``reads`` after it.  What the probes test once is computed
        where the loop's own ``for`` begins (line ``inner``, at indent
        ``depth``: inside the subranges of a Range-Filter loop), and
        again after each reload of its handle's fields.  Those lines
        only compare and do arithmetic on ``int``s they have tested, so
        they never raise."""
        pad = "    " * self.indent
        loads, terms = [], []
        for arr, (fields, hits, tested) in hoist.handles.items():
            reload = f"{', '.join(fields.values())} = _fields({arr})"
            loads += [f"{pad}{reload} if isinstance({arr}, _Handle)"
                      " else (None, 0, 0, 0)", f"{pad}{hits} = 0"]
            if not tested:
                continue
            again = []
            for source, local in tested.items():
                again.append(f"{local} = {source}")
                terms.append(f"{'    ' * depth}{local} = {source}")
            for k in range(inner, len(self.lines)):
                line = self.lines[k]
                if not line.endswith(reload):
                    continue
                self.lines[k] = f"{line}; {'; '.join(again)}"
                if isinstance(line, _Site):
                    self.lines[k] = _Site(self.lines[k])
                    self.lines[k].fault = line.fault
        self.lines[inner:inner] = terms
        self.lines[entry:entry] = loads
        for arr, (_, hits, _) in hoist.handles.items():
            self.emit(f"if {hits}: {arr}.reads += {hits}")

    def held(self, slot: int, name: str, arr: str):
        """The probe locals of handle local ``arr`` (slot ``slot``, name
        ``name``) in the innermost Python ``for`` being written, or None
        where that loop may rebind it or there is none."""
        if not self.hoists:
            return None
        hoist = self.hoists[-1]
        if slot >= hoist.outer or name in hoist.carried:
            return None
        held = hoist.handles.get(arr)
        if held is None:
            held = hoist.handles[arr] = (
                {f: self.temp() for f in _PROBE_FIELDS}, self.temp(), {})
        return held

    def indices_of(self, stmt: A.For, first: str, last: str) -> str:
        """What a ``for`` from ``first`` to ``last`` iterates over."""
        step = -1 if stmt.descending else 1
        if self.kinds.get(first) is int and self.kinds.get(last) is int:
            return f"range({first}, {last} + {step}, {step})"
        return f"_span({first}, {last}, {step})"

    def loop_body(self, stmts: list[A.Stmt], scope: dict) -> None:
        """One iteration: the body, then the ``next`` values the taken
        branches assigned replace the carried variables (each resolved
        where the loop statement stands).  A ``next`` at the top of the
        body is assigned in every iteration; any other starts each one
        unset."""
        self.sc.loops.append({})
        self.loop_level += 1
        mark = len(self.lines)
        self.body(stmts, scope)
        self.loop_level -= 1
        definite = {s.name for s in stmts if type(s) is A.NextBind}
        unset = []
        for name, pending in self.sc.loops.pop().items():
            local = self.names[pending]
            carried = self.names[self.sc.slot_of(name)]
            if name in definite:
                self.emit(f"{carried} = {local}")
                continue
            unset.append(local)
            self.emit(f"if {local} is not _UNSET:")
            self.emit(f"    {carried} = {local}")
        pad = "    " * self.indent
        self.lines[mark:mark] = [f"{pad}{local} = _UNSET"
                                      for local in unset]

    # -- expressions: each returns the atom that holds its value ----------

    def expr(self, e: A.Expr, into: str | None = None) -> str:
        """Write ``e``; its value ends up in ``into`` when given and the
        expression computes anything, else in the returned atom."""
        return _WRITE_EXPR[type(e)](self, e, into)

    def write_num(self, e: A.Num, into) -> str:
        value = e.value
        if isinstance(value, float) and not math.isfinite(value):
            atom = self.global_(value, "k")
        else:
            atom = repr(value)
            if atom.startswith("-"):
                atom = f"({atom})"
        self.kinds[atom] = type(value)
        return atom

    def write_var(self, e: A.Var, into) -> str:
        return self.names[self.sc.slot_of(e.name)]

    def write_binop(self, e: A.BinOp, into) -> str:
        return self.binary(e.op, e.left, e.right, e.loc, into)

    def write_unop(self, e: A.UnOp, into) -> str:
        return self.unary(e.op, e.operand, e.loc, into)

    def binary(self, op: str, left: A.Expr, right: A.Expr, loc,
               into: str | None) -> str:
        a, b = self.expr(left), self.expr(right)
        if self.clock:
            self.charge_op(_BIN_COSTS[op], a, b)
        t = into or self.temp()
        self.typed(t, _BIN_KIND[op](self.kinds.get(a), self.kinds.get(b)))
        infix = _INFIX.get(BINARY_FUNCS[op])
        self.guarded(f"{t} = {a} {infix} {b}" if infix
                     else f"{t} = _b{op}({a}, {b})", loc, op)
        return t

    def unary(self, op: str, operand: A.Expr, loc, into: str | None) -> str:
        a = self.expr(operand)
        if self.clock:
            self.charge_op(_UN_COSTS[op], a)
        t = into or self.temp()
        self.typed(t, _UN_KIND[op](self.kinds.get(a)))
        prefix = _PREFIX.get(UNARY_FUNCS[op])
        self.guarded(f"{t} = {prefix}{a}" if prefix
                     else f"{t} = _u{op}({a})", loc, op)
        return t

    def write_ifexp(self, e: A.IfExp, into) -> str:
        """One compare, then whichever arm is taken."""
        if self.clock:
            self.charge(BRANCH)
        t = into or self.temp()
        for header, arm in ((f"if {self.expr(e.cond)}:", e.then),
                            ("else:", e.other)):
            mark = self.open(header)
            atom = self.expr(arm, t)
            if atom != t:
                self.emit(f"{t} = {atom}", pure=True)
            self.shut(mark)
        return t

    def write_index(self, e: A.Index, into) -> str:
        slot = self.sc.slot_of(e.array)
        arr = self.names[slot]
        mark = len(self.lines)
        atoms = [self.expr(sub) for sub in e.indices]
        t = into or self.temp()
        if self.clock:
            self.charge(ARRAY_READ)
            lines = [f"{t} = _read({arr}, {self.at(atoms)})"]
        else:
            # No read hook either: the handle's probe, then its ``read``
            # for whatever the probe does not hold — through the loop's
            # locals where it holds the handle's fields, reloaded after
            # a miss while they hold no list (a shared-memory handle
            # builds its list on its first ``read``, and a handle's
            # fields change only then).
            kinds = [self.kinds.get(a) for a in atoms]
            read = f"{t} = {arr}.read({self.at(atoms)})"
            lines = [read]
            probe = probe_source(atoms, kinds, t,
                                 {f: f"{arr}.{f}" for f in _PROBE_FIELDS})
            held = probe and self.held(slot, e.array, arr)
            if held:
                fields, hits, tested = held
                hoist = self.hoists[-1]
                fixed = []
                for pos, sub in enumerate(e.indices):
                    if (type(sub) is A.Num and type(sub.value) is int
                            or type(sub) is A.Var and sub.name
                            not in hoist.carried
                            and self.sc.slot_of(sub.name) < hoist.outer):
                        fixed.append(pos)

                def local(source: str) -> str:
                    if source not in tested:
                        tested[source] = self.temp()
                    return tested[source]
                probe = probe_source(atoms, kinds, t, fields, fixed,
                                     hoist.span, local)
                reload = f"{', '.join(fields.values())} = _fields({arr})"
                lines = [f"if {probe}: {hits} += 1", "else:", f"    {read}",
                         f"    if {fields['seen']} is None: {reload}"]
            elif probe is not None:
                lines = [f"if {probe}: {arr}.reads += 1", f"else: {read}"]
        self.access(lines, arr, e.array, mark, e.indices)
        return t

    def indices(self, subs: list[A.Expr]) -> str:
        return self.at([self.expr(sub) for sub in subs])

    @staticmethod
    def at(atoms: list[str]) -> str:
        """The index tuple of ``atoms``, as source."""
        return f"({atoms[0]},)" if len(atoms) == 1 else f"({', '.join(atoms)})"

    def write_call(self, e: A.Call, into) -> str:
        if e.name in A.UNARY_BUILTINS:
            return self.unary(e.name, e.args[0], e.loc, into)
        if e.name in A.BINARY_BUILTINS:
            return self.binary(e.name, *e.args, None, into)
        args = [self.expr(arg) for arg in e.args]
        t = into or self.temp()
        if e.name in A.ALLOC_BUILTINS:
            if self.clock:
                self.charge(T.ALLOC_ARRAY)
            self.emit(f"{t} = _alloc(({', '.join(args)},))")
            return t
        if e.name not in self.interp.program.functions:
            raise ExecutionError(f"call to unknown {e.name!r}")
        callee = self.interp.fn_keys[e.name]
        args = ", ".join(["_depth + 1", *args])
        self.emit(f"{t} = {callee}({args})")
        return t


_WRITE_STMT = {A.Bind: _Writer.write_bind, A.NextBind: _Writer.write_next,
               A.ArrayWrite: _Writer.write_array_write, A.If: _Writer.write_if,
               A.Return: _Writer.write_return, A.For: _Writer.write_for,
               A.While: _Writer.write_while}
_WRITE_EXPR = {A.Num: _Writer.write_num, A.Var: _Writer.write_var,
               A.BinOp: _Writer.write_binop, A.UnOp: _Writer.write_unop,
               A.IfExp: _Writer.write_ifexp, A.Index: _Writer.write_index,
               A.Call: _Writer.write_call}


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

    def partition_of(self, stmt) -> tuple[Any, tuple | None]:
        block = self.block_of.get(id(stmt))
        if block is None or not block.distributed \
                or block.range_filter is None:
            return block, None
        rf = block.range_filter
        return block, tuple(self._operand(block, vid)
                            for vid in (rf.array_vid, *rf.fixed_vids))

    def _operand(self, block: ir.CodeBlock, vid: int) -> tuple[str, Any]:
        """A Range-Filter operand: ``("k", constant)`` or ``("n", name)``."""
        d = block.defs[vid]
        if isinstance(d, ir.ConstDef):
            return "k", d.value
        if isinstance(d, (ir.ParamDef, ir.IndexDef)) and d.name:
            return "n", d.name
        raise ExecutionError(f"cannot resolve vid {vid} of {block.name}")


def run_sequential(program: A.Program, args: tuple = (),
                   entry: str = "main") -> SeqResult:
    """Run ``program`` on the sequential reference interpreter."""
    return Interpreter(program, Clock(), entry).run(args)
