"""Reliable split-phase delivery for the simulated network.

When a fault plan (:mod:`repro.sim.netfaults`) is active, the machine
routes every inter-PE message through a sequence-numbered channel layer:

* each (src, dst) PE pair is one *channel*; every data message gets the
  channel's next sequence number and is kept sender-side until acked;
* the receiver acks every copy it sees (acks are fire-and-forget — their
  loss is healed by sender retransmission, never by ack-of-ack) and
  delivers a sequence number exactly once, discarding duplicates;
* a per-message retransmit timer re-sends unacked messages after
  ``SimConfig.retransmit_timeout_us``; each retransmission occupies the
  Routing Unit and pays full Dunigan latency again, so recovered losses
  show up honestly in modeled time and the NU counters;
* a per-channel retransmit budget (``SimConfig.retransmit_budget``)
  bounds the healing: exhausting it raises a structured
  :class:`~repro.common.errors.PEHaltError` (dead receiver) or
  :class:`~repro.common.errors.LivelockError` (lossy channel) instead of
  spinning forever.

Because I-structures are single-assignment and token matching tolerates
stragglers, at-least-once delivery plus receiver dedup is enough for
*bit-identical* results under drop/duplicate/reorder chaos — the
property the Church-Rosser chaos tests pin down.  The whole layer exists
only when a plan is active: a fault-free run never allocates a channel,
never assigns a sequence number, and stays byte-identical to the
pre-fault-model simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class Channel:
    """Sender- and receiver-side state of one (src, dst) PE pair."""

    __slots__ = ("src", "dst", "next_seq", "unacked", "seen",
                 "retransmits")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.next_seq = 0
        # seq -> (message, first_send_us, retries) awaiting an ack.
        self.unacked: dict[int, list] = {}
        # Receiver-side dedup: every seq already delivered.
        self.seen: set[int] = set()
        self.retransmits = 0

    def describe(self) -> str:
        pending = sorted(self.unacked)
        shown = ", ".join(str(s) for s in pending[:6])
        if len(pending) > 6:
            shown += f", ... +{len(pending) - 6} more"
        return (f"PE{self.src}->PE{self.dst}: {len(pending)} unacked "
                f"(seq {shown}), {self.retransmits} retransmit(s)")


@dataclass
class NetStats:
    """Counters of the reliable layer, one per run.  (A retransmission's
    span goes into the run's span log, ``SpanLog.net_spans``.)"""

    sent: int = 0              # data messages given a sequence number
    retransmits: int = 0       # re-sends after a timer expiry
    dropped: int = 0           # copies lost to injected drop faults
    duplicated: int = 0        # extra copies from injected dup faults
    delayed: int = 0           # copies given injected extra latency
    dup_discarded: int = 0     # receiver-side duplicate discards
    acks_sent: int = 0
    halt_lost: int = 0         # copies addressed to a halted PE
    auth_rejected: int = 0     # frames dropped for a bad HMAC tag

    def counters(self) -> dict[str, int]:
        """Every counter by field name — the one list the registry's
        ``net.*`` rows, a run record's ``net`` section and a dist node's
        ``bye`` frame are all written from."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, counters: dict) -> None:
        """Sum another endpoint's :meth:`counters` into these."""
        for name, value in self.counters().items():
            setattr(self, name, value + int(counters.get(name, 0)))

    def any_faults(self) -> bool:
        return (self.retransmits or self.dropped or self.duplicated
                or self.delayed or self.dup_discarded or self.halt_lost
                or self.auth_rejected)

    def table(self) -> str:
        """The ``pods run/profile`` fault & delivery summary."""
        rows = [
            ("reliable messages", self.sent),
            ("acks sent", self.acks_sent),
            ("faults: dropped copies", self.dropped),
            ("faults: duplicated copies", self.duplicated),
            ("faults: delayed copies", self.delayed),
            ("lost to halted PEs", self.halt_lost),
            ("retransmissions", self.retransmits),
            ("duplicates discarded", self.dup_discarded),
            ("auth-rejected frames", self.auth_rejected),
        ]
        lines = ["network fault/recovery summary:"]
        for label, value in rows:
            lines.append(f"  {label:<26s}{value:>8d}")
        return "\n".join(lines)


class ReliableNet:
    """Channel bookkeeping; the machine's event loop does the scheduling."""

    def __init__(self) -> None:
        self.channels: dict[tuple[int, int], Channel] = {}
        self.stats = NetStats()

    def channel(self, src: int, dst: int) -> Channel:
        ch = self.channels.get((src, dst))
        if ch is None:
            ch = self.channels[(src, dst)] = Channel(src, dst)
        return ch

    # -- sender side -----------------------------------------------------

    def assign(self, src: int, dst: int, msg, now: float) -> int:
        """Register a new data message; returns its sequence number."""
        ch = self.channel(src, dst)
        seq = ch.next_seq
        ch.next_seq += 1
        ch.unacked[seq] = [msg, now, 0]
        self.stats.sent += 1
        return seq

    def on_ack(self, src: int, dst: int, seq: int) -> bool:
        """Ack received at the sender; True if it retired a message."""
        ch = self.channels.get((src, dst))
        if ch is None:
            return False
        return ch.unacked.pop(seq, None) is not None

    # -- receiver side ---------------------------------------------------

    def on_deliver(self, src: int, dst: int, seq: int) -> bool:
        """Copy arrived at the receiver; True when it is the first."""
        ch = self.channel(src, dst)
        if seq in ch.seen:
            self.stats.dup_discarded += 1
            return False
        ch.seen.add(seq)
        return True

    # -- progress diagnostics --------------------------------------------

    def pending_channels(self) -> list[Channel]:
        """Channels still holding unacked messages, deterministically."""
        return [ch for key in sorted(self.channels)
                for ch in (self.channels[key],) if ch.unacked]

    def describe_pending(self) -> list[str]:
        return [ch.describe() for ch in self.pending_channels()]
