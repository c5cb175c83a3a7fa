"""Canonical peer-loss / node-loss reason taxonomy.

Both layers that can declare a peer dead — the socket transport
(:mod:`repro.dist.transport`) and the coordinator's core
(:class:`repro.dist.protocol.CoordinatorProtocol`) — name every loss
reason by one of the constants below.  It travels — through the
transport's lost-callback and in a ``peer-lost`` frame — as its own
field beside the free-form detail, and :func:`reason_string` is the one
place the two are joined for a human (``"<reason>: <detail>"``).

``FAILURE_KIND`` maps each reason onto the two-valued failure taxonomy
of :class:`repro.common.errors.WorkerFailure` and the recovery log:
``"lost"`` (the peer went silent; its process may be alive) versus
``"crash"`` (the process provably exited non-zero).  A test asserts the
mapping is total over ``ALL_REASONS``.
"""

from __future__ import annotations

# -- transport-detected (Endpoint budgets) -------------------------------
RECONNECT_EXHAUSTED = "reconnect-exhausted"
RETRANSMIT_EXHAUSTED = "retransmit-exhausted"

# -- coordinator-detected ------------------------------------------------
HEARTBEAT_SILENCE = "heartbeat-silence"
PROCESS_EXIT = "process-exit"
CONNECTION_CLOSED = "connection-closed"

# -- failover-specific ---------------------------------------------------
COORDINATOR_LOST = "coordinator-lost"

ALL_REASONS = (
    RECONNECT_EXHAUSTED,
    RETRANSMIT_EXHAUSTED,
    HEARTBEAT_SILENCE,
    PROCESS_EXIT,
    CONNECTION_CLOSED,
    COORDINATOR_LOST,
)

# reason -> WorkerFailure.kind.  PROCESS_EXIT is refined by exit code in
# failure_kind(): a zero/None exit is a clean disappearance ("lost"),
# anything else is a crash.
FAILURE_KIND = {
    RECONNECT_EXHAUSTED: "lost",
    RETRANSMIT_EXHAUSTED: "lost",
    HEARTBEAT_SILENCE: "lost",
    PROCESS_EXIT: "crash",
    CONNECTION_CLOSED: "lost",
    COORDINATOR_LOST: "lost",
}


def reason_string(reason: str, detail: str = "") -> str:
    """``"<reason>"`` or ``"<reason>: <detail>"``."""
    if reason not in FAILURE_KIND:
        raise ValueError(f"unknown loss reason {reason!r}")
    return f"{reason}: {detail}" if detail else reason


def failure_kind(reason: str, exitcode: int | None = None) -> str:
    """Map a loss reason (plus optional exit code) onto lost/crash."""
    if reason == PROCESS_EXIT:
        return "lost" if exitcode in (0, None) else "crash"
    return FAILURE_KIND[reason]
