"""Instruction set of Subcompact Processes.

The PODS Translator lowers each dataflow code block into one *SP template*:
a sequential list of instructions plus a frame layout (operand slots).
Execution inside an SP is control-driven — a program counter steps through
the list — while blocking/wake-up stays data-driven: an instruction whose
operand slot is absent blocks the whole SP (paper Section 3).

Operands are either frame slots ``("s", index)`` or immediate constants
``("k", value)``.  Slots have presence bits; immediates are always present.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ExecutionError

# -- opcodes (ints for fast dispatch in the Execution Unit) ------------

MOV = 1        # dst <- a
BIN = 2        # dst <- fn(a, b)
UN = 3         # dst <- fn(a)
JUMP = 4       # pc <- target
BRF = 5        # if not a: pc <- target
BRT = 6        # if a: pc <- target
ALLOC = 7      # dst <- new array id (async; distributed when flagged)
AREAD = 8      # dst <- array[a..] (split-phase: issue, continue)
AWRITE = 9     # array[a..] <- value
RFRANGE = 10   # (dst, dst2) <- Range-Filter-clamped (init, limit)
SPAWN = 11     # instantiate child SP (local L; distributing LD when flagged)
SENDR = 12     # send value to a ReturnAddress held in a slot
END = 13       # terminate this SP (frame is destroyed)
NOP = 14

OP_NAMES = {
    MOV: "MOV", BIN: "BIN", UN: "UN", JUMP: "JUMP", BRF: "BRF", BRT: "BRT",
    ALLOC: "ALLOC", AREAD: "AREAD", AWRITE: "AWRITE", RFRANGE: "RFRANGE",
    SPAWN: "SPAWN", SENDR: "SENDR", END: "END", NOP: "NOP",
}

_BRANCHES = frozenset((JUMP, BRF, BRT))

Operand = tuple  # ("s", slot_index) | ("k", constant)


def slot(i: int) -> Operand:
    return ("s", i)


def const(v: Any) -> Operand:
    return ("k", v)


# -- scalar function tables --------------------------------------------

def _safe_div(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _safe_idiv(a, b):
    if b == 0:
        raise ExecutionError("integer division by zero")
    return a // b


def _safe_mod(a, b):
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


def _safe_pow(a, b):
    try:
        result = a ** b
    except ZeroDivisionError:
        raise ExecutionError(f"zero to a negative power: {a} ^ {b}") from None
    except OverflowError:
        raise ExecutionError(f"power out of range: {a} ^ {b}") from None
    if isinstance(result, complex):
        raise ExecutionError(f"fractional power of negative base: {a} ^ {b}")
    return result


def _safe_sqrt(a):
    if a < 0:
        raise ExecutionError(f"sqrt of negative value {a}")
    return a ** 0.5


BINARY_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _safe_div,
    "idiv": _safe_idiv,
    "mod": _safe_mod,
    "pow": _safe_pow,
    "min": min,
    "max": max,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

UNARY_FUNCS: dict[str, Callable[[Any], Any]] = {
    "neg": operator.neg,
    "not": operator.not_,
    "abs": abs,
    "sqrt": _safe_sqrt,
    "float": float,
    "int": int,
}


@dataclass
class Instr:
    """One SP instruction.  Field use depends on ``op``:

    ========  =============================================================
    MOV       dst, a
    BIN/UN    dst, fn, a[, b]
    JUMP      target
    BRF/BRT   a (condition), target
    ALLOC     dst (array-id slot), args (dim operands), distributed
    AREAD     dst, a (array-id operand), args (index operands)
    AWRITE    a (array-id operand), args (index operands), b (value operand)
    RFRANGE   dst (first), dst2 (last), a (array id), args (fixed leading
              indices), b (init operand), extra (limit operand), dim
              (filtered subscript position), descending
    SPAWN     block (child template id), args (argument operands),
              result_slots (caller slots cleared now, filled by SENDR),
              distributed (LD when True)
    SENDR     a (ReturnAddress operand), b (value operand)
    END       --
    ========  =============================================================
    """

    op: int
    dst: int | None = None
    dst2: int | None = None
    fn: str | None = None
    a: Operand | None = None
    b: Operand | None = None
    extra: Operand | None = None
    args: tuple = ()
    target: int = -1
    block: int = -1
    dim: int = 0
    distributed: bool = False
    descending: bool = False
    result_slots: tuple[int, ...] = ()
    comment: str = ""

    def input_operands(self) -> list[Operand]:
        """Operands whose presence gates execution of this instruction."""
        ops = [o for o in (self.a, self.b, self.extra) if o is not None]
        ops.extend(self.args)
        return ops

    def __repr__(self) -> str:
        op = self.op
        parts = [OP_NAMES.get(op) or f"op{op}"]
        if self.dst is not None:
            parts.append(f"s{self.dst}<-")
        if self.fn:
            parts.append(self.fn)
        for o in self.input_operands():
            parts.append(f"s{o[1]}" if o[0] == "s" else repr(o[1]))
        if op in _BRANCHES:
            parts.append(f"@{self.target}")
        elif op == SPAWN:
            parts.append(f"block={self.block}{'D' if self.distributed else ''}")
        if self.comment:
            parts.append(f"; {self.comment}")
        return " ".join(parts)


@dataclass
class SPTemplate:
    """Static description of one Subcompact Process.

    Attributes:
        block_id: Id shared with the source dataflow code block.
        name: Human-readable name (function name or ``f.loop_i``).
        kind: ``"function"`` or ``"loop"``.
        code: Instruction sequence; entry at pc 0, must end in END on
            every path.
        num_slots: Frame size in operand slots.
        inputs: Slot index for each input token position.
        source: Optional provenance note for debugging.
    """

    block_id: int
    name: str
    kind: str
    code: list[Instr] = field(default_factory=list)
    num_slots: int = 0
    inputs: tuple[int, ...] = ()
    source: str = ""

    def listing(self) -> str:
        """Assembly-style listing (debugging and golden tests)."""
        lines = [f"SP {self.block_id} {self.name} kind={self.kind} "
                 f"slots={self.num_slots} inputs={list(self.inputs)}"]
        for pc, ins in enumerate(self.code):
            lines.append(f"  {pc:4d}: {ins!r}")
        return "\n".join(lines)


@dataclass
class PodsProgram:
    """A fully translated (and possibly partitioned) PODS program.

    Attributes:
        templates: block_id -> SP template.
        entry_block: Template invoked to start the program (``main``).
        arity: Number of user arguments ``main`` expects.
    """

    templates: dict[int, SPTemplate]
    entry_block: int
    arity: int
    name: str = "program"

    def template(self, block_id: int) -> SPTemplate:
        return self.templates[block_id]

    def listing(self) -> str:
        return "\n\n".join(
            self.templates[b].listing() for b in sorted(self.templates)
        )

    def instruction_count(self) -> int:
        return sum(len(t.code) for t in self.templates.values())
