"""Framed, reliable TCP transport between node processes.

Wire format: every frame is a 4-byte big-endian length prefix followed
by one UTF-8 JSON object.  Three frame classes cross the peer wire:

* ``data`` — ``{"t": "data", "src": n, "seq": k, "m": [payload, ...],
  "a": [seq, ...]}``; the reliable class.  Each (src, dst) pair is a
  sequence-numbered channel: the sender keeps every frame until acked
  and retransmits it whole on a timer, the receiver acks every copy and
  delivers each sequence number exactly once, its payloads in order.
  The channel bookkeeping (and its :class:`NetStats` counters) is
  :mod:`repro.sim.reliable`'s — the simulator proved the protocol in
  modeled time; this module runs the same state machine on a real wire.
* ``ack`` — ``{"t": "ack", "src": n, "seq": [k, ...]}``; fire-and-forget
  (a lost ack is healed by sender retransmission, never by ack-of-ack).
* ``peer-hello`` — connection preamble naming the dialing node.

One frame per peer per turn.  A turn is one callback's worth of the
loop's work: a data frame delivered (its payloads' answers and its ack)
or, in the node, an executor hand-over drained or a coordinator frame
carried out.  What a turn sends a peer is queued and at the turn's end
(:meth:`Endpoint.flush`) leaves as one ``data`` frame whose ``m`` lists
the payloads and whose ``a`` (omitted when empty) lists the seqs owed
that peer an ack; a peer owed only acks gets one ``ack`` frame listing
them.  A frame is written at once when the link is up; a dial, an
injected delay and a retransmission wait in a task.  So
:class:`NetStats` counts frames here: ``sent`` data frames,
``acks_sent`` ``ack`` frames.

TCP already gives in-order reliable bytes *per connection*; the
sequence/ack/dedup layer is what makes delivery survive the connection
itself failing — a reconnect (budgeted redials with the shared
:class:`repro.common.retry.RetryPolicy` backoff) simply replays the
unacked window, and the receiver's dedup set absorbs any overlap.
At-least-once plus receiver dedup plus single-assignment stores is the
same Church-Rosser argument the simulator's chaos tests pin down.

Fault injection (:mod:`repro.dist.faults`) sits at the transmit
boundary, *below* the reliability layer: injected drops and delays
apply to retransmissions too, so a healed partition is healed by real
retransmissions.  When a channel's retransmit budget or a connection's
redial budget is exhausted the peer is declared lost — the transport
reports it and stops trying; deciding whether that is a takeover or a
structured abort is the coordinator's job, not the socket layer's.

Frame authentication: when ``PODS_DIST_SECRET`` is set, every frame
carries an HMAC-SHA256 tag over the JSON body between the length prefix
and the body.  A frame with a bad or missing tag is *dropped at the
framing layer* — below reliability — and counted in
``NetStats.auth_rejected``; a dropped data frame heals by the sender's
normal retransmission, exactly like an injected drop.  Tampering can
therefore delay a run but never corrupt it.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import os
import struct
import time

from repro.dist import reasons
from repro.sim.reliable import NetStats, ReliableNet

# The coordinator's address on the control link (nodes are >= 0).
COORD = -1

_HEADER = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024
_MAC_SIZE = hashlib.sha256().digest_size

SECRET_ENV = "PODS_DIST_SECRET"


def frame_secret() -> bytes | None:
    """The shared frame-auth key, or None when auth is off."""
    secret = os.environ.get(SECRET_ENV)
    return secret.encode("utf-8") if secret else None


def encode_frame(obj: dict, secret: bytes | None = None) -> bytes:
    """One wire frame: length prefix [+ HMAC tag] + compact JSON."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if secret is None:
        return _HEADER.pack(len(body)) + body
    mac = hmac.new(secret, body, hashlib.sha256).digest()
    return _HEADER.pack(len(body)) + mac + body


async def read_frame(reader: asyncio.StreamReader,
                     secret: bytes | None = None,
                     on_reject=None) -> dict | None:
    """Read one authentic frame; ``None`` on clean EOF at a boundary.

    With a ``secret``, frames whose tag does not verify are skipped (the
    stream stays framed — the length prefix is trusted for *skipping*
    only) and ``on_reject`` fires once per rejected frame.
    """
    while True:
        try:
            header = await reader.readexactly(_HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        (length,) = _HEADER.unpack(header)
        if length > _MAX_FRAME:
            raise ValueError(f"frame length {length} exceeds {_MAX_FRAME}")
        try:
            if secret is None:
                body = await reader.readexactly(length)
            else:
                mac = await reader.readexactly(_MAC_SIZE)
                body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        if secret is not None:
            want = hmac.new(secret, body, hashlib.sha256).digest()
            if not hmac.compare_digest(mac, want):
                if on_reject is not None:
                    on_reject()
                continue  # drop below the reliability layer
        return json.loads(body.decode("utf-8"))


class Endpoint:
    """One node's peer-facing transport: listener + reliable channels.

    Lives entirely on the node's asyncio loop.  ``send`` queues a
    payload for the turn's data frame to its peer, and ``flush`` ends
    the turn (the endpoint ends its own after each frame it delivers);
    ``on_message(src, payload)`` fires exactly once per delivered
    payload; ``on_peer_lost(peer, reason, detail)`` — a
    :mod:`repro.dist.reasons` constant and free text — fires when a
    channel or connection budget is exhausted.  Peers fenced by the
    coordinator are ``forget``-ten: their channels drain and further
    sends become no-ops.
    """

    def __init__(self, node: int, cfg, injector,
                 on_message, on_peer_lost) -> None:
        self.node = node
        self.cfg = cfg
        self.injector = injector
        self.on_message = on_message
        self.on_peer_lost = on_peer_lost
        self.secret = frame_secret()
        self.net = ReliableNet()
        self.peers: dict[int, tuple[str, int]] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._dialing: dict[int, asyncio.Future] = {}
        self._lost: set[int] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._retransmit_task: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._closed = False
        # The turn's traffic: dst -> messages, and src -> (the
        # connection its data came by, the seqs owed an ack).
        self._outbox: dict[int, list] = {}
        self._owed: dict[int, tuple] = {}

    @property
    def stats(self) -> NetStats:
        return self.net.stats

    async def start(self, host: str) -> int:
        """Bind the peer listener; returns the ephemeral port."""
        self._server = await asyncio.start_server(self._accept, host, 0)
        self._retransmit_task = asyncio.ensure_future(
            self._retransmit_loop())
        return self._server.sockets[0].getsockname()[1]

    def set_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        self.peers = dict(peers)

    # -- sending ---------------------------------------------------------

    def send(self, dst: int, payload: dict) -> None:
        """Reliably send ``payload`` to peer ``dst`` (loop context): it
        leaves with everything else sent ``dst`` this turn, at the
        turn's :meth:`flush`."""
        if dst in self._lost or self._closed or dst == self.node:
            return
        self._outbox.setdefault(dst, []).append(payload)

    def flush(self) -> None:
        """End the turn: per peer, its messages as one data frame
        carrying the acks owed it, or the acks alone."""
        outbox, self._outbox = self._outbox, {}
        owed, self._owed = self._owed, {}
        if self._closed:
            return
        for dst, msgs in outbox.items():
            if dst in self._lost:
                continue
            seq = self.net.assign(self.node, dst, None, time.monotonic())
            frame = {"t": "data", "src": self.node, "seq": seq, "m": msgs}
            if dst in owed:
                frame["a"] = owed.pop(dst)[1]
            self.net.channel(self.node, dst).unacked[seq][0] = frame
            self._transmit(dst, frame, "data", self._writers.get(dst))
        for src, (writer, seqs) in owed.items():
            self._transmit(src, {"t": "ack", "src": self.node, "seq": seqs},
                           "ack", writer)

    def _transmit(self, dst: int, frame: dict, kind: str, writer) -> None:
        """One frame through the fault boundary: dropped, or written now
        on ``writer`` if it is up and no delay was injected; else a task
        waits out the delay and writes a data frame on its link, dialing
        if it is down (``writer`` None: the retransmit path).  An ack
        goes on the connection its data came by, or nowhere: the
        sender's retransmission heals it."""
        drop, delay_s = self.injector.decide_frame(dst, kind)
        if drop:
            self.net.stats.dropped += 1
            return
        if kind == "ack":
            self.net.stats.acks_sent += 1
        if delay_s:
            self.net.stats.delayed += 1
        if not delay_s and writer is not None and not writer.is_closing():
            self._write(dst, frame, writer)
        elif delay_s or kind == "data":
            self._spawn(self._transmit_later(
                dst, frame, delay_s, writer if kind == "ack" else None))

    async def _transmit_later(self, dst: int, frame: dict, delay_s: float,
                              writer) -> None:
        if delay_s:
            await asyncio.sleep(delay_s)
        if writer is None:
            writer = await self._ensure_conn(dst)
        if writer is not None and not writer.is_closing():
            self._write(dst, frame, writer)

    def _write(self, dst: int, frame: dict, writer) -> None:
        try:
            writer.write(encode_frame(frame, self.secret))
        except (ConnectionError, OSError):
            # Next retransmit scan redials and replays the window.
            if self._writers.get(dst) is writer:
                self._writers.pop(dst, None)

    async def _ensure_conn(self, dst: int):
        if dst in self._lost or self._closed:
            return None
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        fut = self._dialing.get(dst)
        if fut is None:
            fut = self._dialing[dst] = asyncio.ensure_future(
                self._dial(dst))
            fut.add_done_callback(
                lambda f, d=dst: self._dialing.pop(d, None))
        return await asyncio.shield(fut)

    async def _dial(self, dst: int):
        host, port = self.peers[dst]
        attempts = max(1, self.cfg.reconnect_attempts)
        for attempt in range(1, attempts + 1):
            if self._closed or dst in self._lost:
                return None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.cfg.connect_timeout_s)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if attempt < attempts:
                    await asyncio.sleep(self.cfg.retry.backoff_s(dst, attempt))
                continue
            writer.write(encode_frame({"t": "peer-hello",
                                       "src": self.node}, self.secret))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                continue
            self._writers[dst] = writer
            self._spawn(self._read_conn(reader, writer))
            return writer
        self._declare_lost(dst, reasons.RECONNECT_EXHAUSTED,
                           f"{attempts} attempts")
        return None

    # -- receiving -------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._read_conn(reader, writer)
        except asyncio.CancelledError:
            # Teardown cancellation: end the handler quietly, or the
            # stream server's done-callback logs a spurious traceback.
            pass

    def _auth_reject(self) -> None:
        self.net.stats.auth_rejected += 1

    async def _read_conn(self, reader, writer) -> None:
        try:
            while True:
                frame = await read_frame(reader, self.secret,
                                         self._auth_reject)
                if frame is None:
                    break
                t, src = frame.get("t"), frame.get("src")
                if t == "data":
                    for seq in frame.get("a", ()):
                        self.net.on_ack(self.node, src, seq)
                    seq = frame["seq"]
                    first = self.net.on_deliver(src, self.node, seq)
                    # Every copy is acked, on the connection it came by.
                    self._owed[src] = (writer, [seq])
                    if first:
                        for payload in frame["m"]:
                            self.on_message(src, payload)
                    self.flush()  # the frame's turn: acks and answers
                elif t == "ack":
                    for seq in frame["seq"]:
                        self.net.on_ack(self.node, src, seq)
                # peer-hello and anything else: preamble/no-op.
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # -- retransmission --------------------------------------------------

    async def _retransmit_loop(self) -> None:
        interval = max(self.cfg.retransmit_timeout_s / 2, 0.01)
        while not self._closed:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for (src, dst), ch in list(self.net.channels.items()):
                if src != self.node or not ch.unacked:
                    continue
                if dst in self._lost:
                    ch.unacked.clear()
                    continue
                for seq in sorted(ch.unacked):
                    entry = ch.unacked.get(seq)
                    if entry is None:
                        continue
                    frame, last_send, retries = entry
                    if now - last_send < self.cfg.retransmit_timeout_s:
                        continue
                    if retries >= self.cfg.retransmit_budget:
                        self._declare_lost(
                            dst, reasons.RETRANSMIT_EXHAUSTED,
                            f"seq {seq} unacked after {retries} resends")
                        break
                    entry[1] = now
                    entry[2] = retries + 1
                    ch.retransmits += 1
                    self.net.stats.retransmits += 1
                    self._transmit(dst, frame, "data", None)

    # -- peer lifecycle --------------------------------------------------

    def forget(self, peer: int) -> None:
        """Stop talking to a fenced/dead peer (no loss callback)."""
        self._lost.add(peer)
        ch = self.net.channels.get((self.node, peer))
        if ch is not None:
            ch.unacked.clear()
        writer = self._writers.pop(peer, None)
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    def _declare_lost(self, peer: int, reason: str, detail: str) -> None:
        if peer in self._lost:
            return
        self.forget(peer)
        self.on_peer_lost(peer, reason, detail)

    # -- plumbing --------------------------------------------------------

    def _spawn(self, coro) -> None:
        if self._closed:
            coro.close()
            return
        task = asyncio.ensure_future(coro)
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def close(self) -> None:
        self._closed = True
        if self._retransmit_task is not None:
            self._retransmit_task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        for writer in list(self._writers.values()):
            try:
                writer.close()
            except Exception:
                pass
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        await asyncio.sleep(0)  # let cancellations run
