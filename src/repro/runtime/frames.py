"""SP instances: frames and process control blocks (paper Section 3).

An SP instance is "loaded into execution memory" with "a simple process
control block consisting essentially of the starting address of the SP, a
program counter, and a status field indicating whether the process is
running, ready, or blocked".  Here the frame *is* the PCB plus the operand
slots with presence bits.
"""

from __future__ import annotations

from typing import Any

# PCB status values (Section 3: running / ready / blocked).
READY = 0
RUNNING = 1
BLOCKED = 2
DONE = 3

STATUS_NAMES = {READY: "ready", RUNNING: "running", BLOCKED: "blocked",
                DONE: "done"}


class Frame:
    """One active Subcompact Process.

    Attributes:
        uid: Machine-wide unique id (allocated by the creating PE).
        block_id: Template this frame executes.
        ctx: Matching context key that instantiated the frame.
        pe: PE the frame lives on (frames never migrate).
        pc: Program counter.
        status: READY / RUNNING / BLOCKED / DONE.
        waiting_slot: Slot index the frame is blocked on (or None).
        waiting_header: Array id whose header the frame awaits (or None).
    """

    __slots__ = (
        "uid", "block_id", "ctx", "pe", "pc", "status",
        "waiting_slot", "waiting_header", "_slots", "present_mask",
        "code", "_spawn_seq",
        "name", "inputs_expected", "inputs_received",
        "outstanding_children", "budget_blocked",
    )

    def __init__(self, uid: int, block_id: int, ctx: tuple, pe: int,
                 num_slots: int, name: str = "",
                 inputs_expected: int = 0) -> None:
        self.uid = uid
        self.block_id = block_id
        self.ctx = ctx
        self.pe = pe
        self.pc = 0
        self.status = READY
        self.waiting_slot: int | None = None
        self.waiting_header: int | None = None
        self._slots: list[Any] = [None] * num_slots
        # Presence bits: bit i set <=> slot i holds a value.  The one
        # record of presence — a cleared slot keeps its stale value and
        # is absent because its bit is off.
        self.present_mask = 0
        # Handler table of this frame's template (repro.sim.decode),
        # set by the machine that creates the frame.
        self.code = None
        self._spawn_seq = 0
        self.name = name
        # An SP may terminate before every input token has arrived (e.g.
        # a distributed replica whose Range Filter is empty never touches
        # its loop-invariant imports).  The Matching Unit keeps the match
        # entry as a tombstone until the count completes, so stragglers
        # are dropped instead of instantiating a ghost frame.
        self.inputs_expected = inputs_expected
        self.inputs_received = 0
        # k-bounded-spawn accounting (MachineConfig.spawn_budget).
        self.outstanding_children = 0
        self.budget_blocked = False

    # -- slots ---------------------------------------------------------

    def present(self, index: int) -> bool:
        return bool(self.present_mask >> index & 1)

    def get(self, index: int) -> Any:
        if not self.present_mask >> index & 1:
            raise LookupError(
                f"slot {index} of frame {self.uid} ({self.name}) is absent"
            )
        return self._slots[index]

    def put(self, index: int, value: Any) -> bool:
        """Write a slot.  Returns True when this fills the slot the frame
        is blocked on (the caller should move the frame to the ready
        queue)."""
        self._slots[index] = value
        self.present_mask |= 1 << index
        return self.status == BLOCKED and self.waiting_slot == index

    def clear(self, index: int) -> None:
        self.present_mask &= ~(1 << index)

    # -- scheduling ----------------------------------------------------

    def block_on_slot(self, index: int) -> None:
        self.status = BLOCKED
        self.waiting_slot = index
        self.waiting_header = None

    def block_on_header(self, array_id: int) -> None:
        self.status = BLOCKED
        self.waiting_slot = None
        self.waiting_header = array_id

    def make_ready(self) -> None:
        self.status = READY
        self.waiting_slot = None
        self.waiting_header = None

    def next_spawn_seq(self) -> int:
        self._spawn_seq += 1
        return self._spawn_seq

    def describe(self) -> str:
        state = STATUS_NAMES[self.status]
        wait = ""
        if self.waiting_slot is not None:
            wait = f" waiting slot {self.waiting_slot}"
        if self.waiting_header is not None:
            wait = f" waiting header of array {self.waiting_header}"
        return (f"frame {self.uid} {self.name or self.block_id} pe={self.pe} "
                f"pc={self.pc} {state}{wait}")

    def __repr__(self) -> str:
        return f"<Frame {self.uid} {self.name or self.block_id} pc={self.pc}>"
