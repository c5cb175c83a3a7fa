"""The iPSC/2 timing model (paper Section 5.1).

All constants are microseconds and come straight from the paper: the
measured per-instruction times of the 16 MHz 80386/80387 node, the
Matching Unit / Memory Manager / Array Manager task times, and Dunigan's
communication model for the second-generation hypercube.

Two constants are derived rather than quoted:

* ``INT_MUL`` — the paper prices a local array read at 2.7 us as
  "1 integer multiply + 1 integer add + 3 integer comparisons + 1 local
  read"; with add = cmp = 0.3 and read = 0.3 that pins the multiply at
  1.2 us.
* ``RU_MSG_COST`` and ``FLUSH_DELAY`` — modeling choices for array
  messages and batch flushing the paper leaves implicit (documented in
  DESIGN.md).
"""

from __future__ import annotations

# -- Execution Unit: measured instruction times (paper, p. 22) ---------

INT_ADD = 0.300
INT_SUB = 0.300
INT_MUL = 1.200          # derived, see module docstring
INT_DIV = 1.500          # not quoted; scaled from INT_MUL
INT_CMP = 0.300
LOGICAL = 0.558
MOV = 0.300

FNEG = 0.555
FCMP = 5.803
FPOW = 96.418
FABS = 12.626
FSQRT = 18.929
FMUL = 7.217
FDIV = 10.707
FADD = 6.753
FSUB = 6.757

# 80386 CALL ptr16:32 worst case: 21 cycles at 16 MHz.
CONTEXT_SWITCH = 1.312

# offset = size*i + j; two bound checks; presence check; read.
LOCAL_ARRAY_ACCESS = 2.700

# -- Matching Unit ------------------------------------------------------

MATCH_TOKEN = 15.0       # hash lookup on (SP id, frame pointer)

# -- Memory Manager ------------------------------------------------------

MM_FRAME_OP = 0.9        # 3 memory references per linked-list add/delete

# -- Array Manager -------------------------------------------------------

MEM_READ = 0.3
MEM_WRITE = 0.4
UNIT_SIGNAL = 1.0        # signal between functional units on one PE
ENQUEUED_READ = 2.9      # 3 reads + 5 writes: push an early read
ALLOC_ARRAY = 100.0      # + message time


def am_array_write(queued_reads: int) -> float:
    return MEM_WRITE + queued_reads * UNIT_SIGNAL


def am_cached_read(present: bool) -> float:
    return MEM_READ + (UNIT_SIGNAL if not present else 0.0)


def am_remote_read(enqueued: bool) -> float:
    return MEM_READ + (ENQUEUED_READ if enqueued else UNIT_SIGNAL)


def am_receive_page(page_size: int) -> float:
    return page_size * MEM_WRITE


def am_send_page(page_size: int) -> float:
    return page_size * MEM_READ + UNIT_SIGNAL


def am_allocate() -> float:
    return ALLOC_ARRAY + UNIT_SIGNAL


# -- Routing Unit and network (Dunigan's iPSC/2 model) -------------------

TOKEN_BATCH_COST = 19.5      # per token added to a batch (390/20)
RU_MSG_COST = 30.0           # form/dispatch one array message (choice)
ACK_COST = 5.0               # form one reliable-delivery ack (choice):
                             # a 16-byte fixed-format receipt is far
                             # cheaper than a full array message
FLUSH_DELAY = 100.0          # max time a partial batch waits (choice)
NET_PROPAGATION = 2.5        # 2.5 hops at ~1 us each

MSG_SMALL_US = 390.0
MSG_LARGE_BASE_US = 697.0
MSG_PER_BYTE_US = 0.4
MSG_SMALL_LIMIT_BYTES = 100


def message_latency(length_bytes: int,
                    propagation_us: float = NET_PROPAGATION) -> float:
    """Dunigan's send-to-delivery latency for one iPSC/2 message.

    ``propagation_us`` is the physical network time (1 us per hop; the
    paper models 2.5 average hops).
    """
    if length_bytes <= MSG_SMALL_LIMIT_BYTES:
        return MSG_SMALL_US + propagation_us
    return MSG_LARGE_BASE_US + MSG_PER_BYTE_US * length_bytes + propagation_us


# -- scalar operation costs ----------------------------------------------

_BIN_COSTS = {
    #          float      int
    "add": (FADD, INT_ADD),
    "sub": (FSUB, INT_SUB),
    "mul": (FMUL, INT_MUL),
    "div": (FDIV, FDIV),        # '/' always produces a float
    "idiv": (FDIV, INT_DIV),
    "mod": (FDIV, INT_DIV),
    "pow": (FPOW, FPOW),
    "min": (FCMP, INT_CMP),
    "max": (FCMP, INT_CMP),
    "lt": (FCMP, INT_CMP),
    "le": (FCMP, INT_CMP),
    "gt": (FCMP, INT_CMP),
    "ge": (FCMP, INT_CMP),
    "eq": (FCMP, INT_CMP),
    "ne": (FCMP, INT_CMP),
    "and": (LOGICAL, LOGICAL),
    "or": (LOGICAL, LOGICAL),
}

_UN_COSTS = {
    "neg": (FNEG, INT_SUB),
    "not": (LOGICAL, LOGICAL),
    "abs": (FABS, INT_CMP),
    "sqrt": (FSQRT, FSQRT),
    "float": (FNEG, FNEG),
    "int": (FNEG, FNEG),
}
