"""Tokens and inter-PE messages.

Tokens carry data values between Subcompact Processes.  A *matching* token
addresses an SP instance by (block id, context key) — the Matching Unit
creates the instance when the first token for a new context arrives
(paper Section 3).  A *direct* token addresses an existing frame by its
unique id; it is how function results and loop results travel back to a
return-address slot.

Messages are the network-level envelopes: token batches, array traffic
(read request / value response / page response / remote write), and the
allocate broadcast of the distributing allocate operator (Section 4.1).
Each message class declares its ``kind``, the name a fault plan's
``kind=`` qualifier selects it by (:mod:`repro.sim.netfaults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# Context keys are tuples (spawning frame uid, spawn sequence number) so
# that every PE computes the same key for replicas of a distributed spawn.
CtxKey = tuple


@dataclass(frozen=True)
class ReturnAddress:
    """Where a callee sends its result: a slot of a frame on some PE."""

    pe: int
    frame_uid: int
    slot: int


@dataclass(frozen=True)
class MatchToken:
    """Token matched by (block_id, ctx); fills input slot ``input_index``.

    The context key is ``(parent frame uid, spawn seq)``; budget-counted
    spawns append a ``"b"`` marker so the child's termination releases
    its parent's spawn budget (MachineConfig.spawn_budget).
    """

    block_id: int
    ctx: CtxKey
    input_index: int
    value: Any
    # Producer provenance (frame uid of the sending SP) for wait-state
    # attribution; None for environment-injected tokens.
    src_sp: int | None = None


@dataclass(frozen=True)
class DirectToken:
    """Token delivered to an existing frame's slot (results, wake-ups)."""

    frame_uid: int
    slot: int
    value: Any
    src_sp: int | None = None


Token = MatchToken | DirectToken


# -- network messages -------------------------------------------------


@dataclass(frozen=True)
class TokenBatchMsg:
    """A Routing-Unit batch of tokens bound for one destination PE."""

    kind = "token"

    src_pe: int
    dst_pe: int
    tokens: tuple[Token, ...]

    @property
    def wire_bytes(self) -> int:
        # Tokens are "less than 100 bytes" (Section 5.1); 20 bytes covers
        # SP id, frame/context, slot, and a scalar value.
        return 20 * len(self.tokens)


@dataclass(frozen=True)
class BroadcastTokensMsg:
    """Distributing-L token set travelling down a binomial spanning tree.

    On an iPSC/2-style hypercube the LD operator's "replicated and routed
    to all PEs" is implemented as a log2(P)-deep broadcast: each receiver
    delivers the tokens to its own Matching Unit and forwards copies to
    its tree children, so no single Routing Unit serializes P sends.
    """

    kind = "bcast"

    src_pe: int
    dst_pe: int
    root: int
    tokens: tuple[Token, ...]

    @property
    def wire_bytes(self) -> int:
        return 20 * len(self.tokens)


@dataclass(frozen=True)
class ReadRequestMsg:
    """Split-phase remote read: asks the owner PE for one element."""

    kind = "read"

    src_pe: int
    dst_pe: int
    array_id: int
    offset: int
    waiter: ReturnAddress

    wire_bytes: int = 32


@dataclass(frozen=True)
class ValueResponseMsg:
    """Single-element answer to a read that was deferred at the owner."""

    kind = "value"

    src_pe: int
    dst_pe: int
    array_id: int
    offset: int
    value: Any
    waiter: ReturnAddress

    wire_bytes: int = 32
    # Uid of the SP whose write satisfied the deferred read, when known.
    src_sp: int | None = None


@dataclass(frozen=True)
class PageResponseMsg:
    """Whole-page answer to a remote read hit (Section 4 caching)."""

    kind = "page"

    src_pe: int
    dst_pe: int
    array_id: int
    page: int
    page_lo: int
    cells: tuple
    offset: int
    waiter: ReturnAddress
    element_bytes: int = 8

    @property
    def wire_bytes(self) -> int:
        return 32 + self.element_bytes * len(self.cells)


@dataclass(frozen=True)
class RemoteWriteMsg:
    """Write forwarded to the owning PE (index space > data ownership)."""

    kind = "write"

    src_pe: int
    dst_pe: int
    array_id: int
    offset: int
    value: Any

    wire_bytes: int = 32
    src_sp: int | None = None


@dataclass(frozen=True)
class AllocRequestMsg:
    """Distributing-allocate broadcast carrying the agreed array ID."""

    kind = "alloc"

    src_pe: int
    dst_pe: int
    array_id: int
    dims: tuple[int, ...]

    wire_bytes: int = 48


Message = (
    TokenBatchMsg
    | BroadcastTokensMsg
    | ReadRequestMsg
    | ValueResponseMsg
    | PageResponseMsg
    | RemoteWriteMsg
    | AllocRequestMsg
)


# -- reliable-delivery envelopes (repro.sim.reliable) -------------------


@dataclass(frozen=True)
class SeqMsg:
    """A data message carrying its per-(src, dst) channel sequence number.

    Only the fault-tolerant network path wraps messages; the fault-free
    simulator ships the bare message types above, unchanged.  The four
    extra wire bytes model the sequence-number header.
    """

    seq: int
    msg: Message

    @property
    def src_pe(self) -> int:
        return self.msg.src_pe

    @property
    def dst_pe(self) -> int:
        return self.msg.dst_pe

    @property
    def wire_bytes(self) -> int:
        return self.msg.wire_bytes + 4


@dataclass(frozen=True)
class AckMsg:
    """Fire-and-forget receipt for one sequence number.

    Acks are never themselves acked (their loss is healed by sender
    retransmission), so they carry no sequence number of their own.
    """

    kind = "ack"

    src_pe: int
    dst_pe: int
    seq: int

    wire_bytes: int = 16
