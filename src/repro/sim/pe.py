"""Per-PE state for the PODS simulator (the logical units of Figure 7)."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.runtime.arrays import ArrayHeader
from repro.runtime.frames import Frame
from repro.runtime.istructure import IStructureSegment
from repro.sim.stats import PEStats


@dataclass
class PE:
    """One processing element: EU + MU + MM + AM + RU state.

    The serial units (MU, MM, AM, RU) are modeled as servers via the
    ``free`` map of next-available times; the EU's timeline is driven by the
    chunked execution step of :mod:`repro.sim.decode`.
    """

    pid: int

    # Execution Unit
    ready: deque = field(default_factory=deque)
    running: Frame | None = None
    eu_time: float = 0.0           # when the EU last finished work
    eu_scheduled: bool = False     # an eu_step event is pending
    eu_step: Callable | None = None  # step(M, pe), decode.compile_eu
    suspended_on: tuple | None = None  # (frame_uid, slot) in blocking-read mode

    # Injected PE faults (repro.sim.netfaults): a halted PE's units
    # process nothing and messages addressed to it vanish; a degraded
    # PE's unit service times are multiplied by ``degrade``.
    halted: bool = False
    degrade: float = 1.0

    # serial units (server model: unit -> next time it is free)
    free: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(("MU", "MM", "AM", "RU"), 0.0))

    # Matching Unit state
    match_table: dict = field(default_factory=dict)  # (block, ctx) -> Frame
    live_frames: int = 0

    # Array Manager state
    headers: dict[int, ArrayHeader] = field(default_factory=dict)
    segments: dict[int, IStructureSegment] = field(default_factory=dict)
    # (array_id, page) -> this PE's copy of another PE's page
    copies: dict[tuple[int, int], IStructureSegment] = field(
        default_factory=dict)
    header_waiters: dict[int, list] = field(default_factory=dict)

    # Routing Unit state: per-destination partial token batches
    batches: dict[int, list] = field(default_factory=dict)
    flush_scheduled: set = field(default_factory=set)

    stats: PEStats = field(default_factory=PEStats)

    def describe_blocked(self) -> list[str]:
        """Diagnostics for deadlock reports."""
        from repro.runtime.frames import DONE

        out = []
        for frame in list(self.match_table.values()):
            if frame.status != DONE:
                out.append(frame.describe())
        for aid, seg in self.segments.items():
            pending = seg.pending_offsets()
            if pending:
                header = self.headers.get(aid)
                if header is not None:
                    where = ", ".join(
                        str(header.indices_of(off)) for off in pending[:8])
                else:
                    where = str(pending[:8])
                out.append(
                    f"PE {self.pid}: array {aid} has deferred reads at "
                    f"elements {where}"
                    + (f" (+{len(pending) - 8} more)"
                       if len(pending) > 8 else "")
                )
        return out
