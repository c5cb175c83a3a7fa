"""Framing and reliable delivery on the real-socket transport.

The endpoint pair runs on a private asyncio loop per test; fault
injection happens through the same :class:`DistFaultInjector` the
backend uses, so a dropped frame heals by a *real* retransmission over
a real socket.
"""

import asyncio
import json

import pytest

from repro.common.config import DistConfig
from repro.common.retry import RetryPolicy
from repro.dist import reasons
from repro.dist.faults import DistFaultInjector, DistFaultPlan
from repro.dist.transport import Endpoint, encode_frame, read_frame


class TestFraming:
    def _roundtrip(self, obj):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(obj))
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_roundtrip(self):
        obj = {"t": "data", "src": 3, "seq": 7,
               "m": {"vals": {"0": 1.5}}}
        assert self._roundtrip(obj) == obj

    def test_eof_at_boundary_returns_none(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_frame(reader)

        assert asyncio.run(go()) is None

    def test_truncated_frame_returns_none(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"x": 1})[:-2])
            reader.feed_eof()
            return await read_frame(reader)

        assert asyncio.run(go()) is None

    def test_oversized_frame_rejected(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x7f\xff\xff\xff")
            with pytest.raises(ValueError, match="exceeds"):
                await read_frame(reader)

        asyncio.run(go())


def _endpoint_pair(cfg, faults_a="", faults_b=""):
    """Build two wired endpoints, each with its own fault plan."""
    inbox = {0: [], 1: []}
    lost = []

    def make(node, spec):
        inj = DistFaultInjector(DistFaultPlan.parse(spec), node)
        return Endpoint(node, cfg, inj,
                        on_message=lambda src, m, n=node:
                            inbox[n].append((src, m)),
                        on_peer_lost=lambda peer, why, detail:
                            lost.append((peer, why, detail)))

    return make(0, faults_a), make(1, faults_b), inbox, lost


def _run_pair(cfg, sends, settle_s, faults_a="", faults_b=""):
    """Start a pair, send ``sends`` payloads 0->1, settle, tear down."""

    async def go():
        a, b, inbox, lost = _endpoint_pair(cfg, faults_a, faults_b)
        pa = await a.start("127.0.0.1")
        pb = await b.start("127.0.0.1")
        a.set_peers({1: ("127.0.0.1", pb)})
        b.set_peers({0: ("127.0.0.1", pa)})
        for payload in sends:
            a.send(1, payload)
        a.flush()
        await asyncio.sleep(settle_s)
        stats = (a.stats, b.stats)
        await a.close()
        await b.close()
        return inbox, lost, stats

    return asyncio.run(go())


FAST = dict(nodes=2, retransmit_timeout_s=0.05, connect_timeout_s=2.0)


class TestReliableDelivery:
    def test_clean_delivery_in_order(self):
        cfg = DistConfig(**FAST)
        inbox, lost, _ = _run_pair(cfg, [{"i": i} for i in range(5)],
                                   settle_s=0.3)
        assert [m["i"] for _, m in inbox[1]] == [0, 1, 2, 3, 4]
        assert not lost

    def test_dropped_frames_heal_by_retransmission(self):
        cfg = DistConfig(**FAST)
        inbox, lost, (sa, _) = _run_pair(
            cfg, [{"i": i} for i in range(5)], settle_s=0.6,
            faults_a="drop:kind=data,count=3")
        assert sorted(m["i"] for _, m in inbox[1]) == [0, 1, 2, 3, 4]
        assert sa.dropped >= 3
        assert sa.retransmits >= 3
        assert not lost

    def test_duplicate_deliveries_are_discarded(self):
        # The receiver drops its first acks, forcing retransmission of
        # already-delivered frames; it must re-ack them but deliver
        # each exactly once.
        cfg = DistConfig(**FAST)
        inbox, lost, (_, sb) = _run_pair(
            cfg, [{"i": i} for i in range(3)], settle_s=0.6,
            faults_b="drop:kind=ack,count=2")
        assert [m["i"] for _, m in inbox[1]] == [0, 1, 2]
        assert sb.dup_discarded >= 1
        assert not lost

    def test_retransmit_budget_exhaustion_declares_peer_lost(self):
        cfg = DistConfig(**FAST, retransmit_budget=3)
        inbox, lost, (sa, _) = _run_pair(
            cfg, [{"i": 0}], settle_s=0.6,
            faults_a="drop:kind=data,count=0")
        assert inbox[1] == []
        assert lost and lost[0][0] == 1
        assert lost[0][1] == reasons.RETRANSMIT_EXHAUSTED

    def test_send_to_forgotten_peer_is_noop(self):
        async def go():
            cfg = DistConfig(**FAST)
            a, b, inbox, lost = _endpoint_pair(cfg)
            pb = await b.start("127.0.0.1")
            await a.start("127.0.0.1")
            a.set_peers({1: ("127.0.0.1", pb)})
            a.forget(1)
            a.send(1, {"i": 0})
            a.flush()
            await asyncio.sleep(0.2)
            await a.close()
            await b.close()
            return inbox, lost

        inbox, lost = asyncio.run(go())
        assert inbox[1] == []
        assert not lost  # forget() fences silently, no loss callback

    def test_reconnect_budget_exhaustion_declares_peer_lost(self):
        async def go():
            cfg = DistConfig(nodes=2, connect_timeout_s=0.3,
                             reconnect_attempts=2,
                             retry=RetryPolicy(backoff_base_s=0.01,
                                               backoff_max_s=0.02))
            a, _, inbox, lost = _endpoint_pair(cfg)
            await a.start("127.0.0.1")
            # Nobody is listening on the peer port.
            a.set_peers({1: ("127.0.0.1", 1)})
            a.send(1, {"i": 0})
            a.flush()
            for _ in range(50):
                await asyncio.sleep(0.05)
                if lost:
                    break
            await a.close()
            return lost

        lost = asyncio.run(go())
        assert lost and lost[0][0] == 1
        assert lost[0][1] == reasons.RECONNECT_EXHAUSTED


class _Wire:
    """A connection's write side that keeps the frames written on it."""

    def __init__(self):
        self.frames, self.closed = [], False

    def write(self, data):
        while data:  # unkeyed frames: a length prefix and the JSON body
            end = 4 + int.from_bytes(data[:4], "big")
            self.frames.append(json.loads(data[4:end]))
            data = data[end:]

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def _spy(endpoint):
    """The frames ``endpoint`` writes, as it writes them."""
    frames, write = [], endpoint._write
    endpoint._write = lambda dst, frame, writer: (
        frames.append(frame), write(dst, frame, writer))
    return frames


class TestOneFramePerPeerPerTurn:
    def test_a_turns_messages_leave_as_one_frame_and_acks_ride_back(self):
        # Node 1 answers each message in the turn that delivers it: one
        # frame carries all three answers and the ack node 0 is owed;
        # node 0, with nothing to send, acks that frame alone.
        async def go():
            cfg = DistConfig(**FAST)
            inbox = {0: [], 1: []}

            def make(node):
                def on_message(src, m):
                    inbox[node].append(m)
                    if node == 1:
                        eps[1].send(0, {"re": m["i"]})
                inj = DistFaultInjector(DistFaultPlan.parse(""), node)
                return Endpoint(node, cfg, inj, on_message,
                                lambda *lost: None)

            eps = [make(0), make(1)]
            ports = [await ep.start("127.0.0.1") for ep in eps]
            eps[0].set_peers({1: ("127.0.0.1", ports[1])})
            eps[1].set_peers({0: ("127.0.0.1", ports[0])})
            wires = [_spy(ep) for ep in eps]
            for i in range(3):
                eps[0].send(1, {"i": i})
            eps[0].flush()
            await asyncio.sleep(0.3)
            unacked = [len(ch.unacked) for ch in
                       eps[0].net.channels.values()] + [
                len(ch.unacked) for ch in eps[1].net.channels.values()]
            stats = [ep.stats for ep in eps]
            for ep in eps:
                await ep.close()
            return inbox, wires, unacked, stats

        inbox, (out0, out1), unacked, (s0, s1) = asyncio.run(go())
        assert inbox == {1: [{"i": 0}, {"i": 1}, {"i": 2}],
                         0: [{"re": 0}, {"re": 1}, {"re": 2}]}
        assert out0 == [{"t": "data", "src": 0, "seq": 0, "m": [
            {"i": 0}, {"i": 1}, {"i": 2}]}, {"t": "ack", "src": 0,
                                             "seq": [0]}]
        assert out1 == [{"t": "data", "src": 1, "seq": 0, "m": [
            {"re": 0}, {"re": 1}, {"re": 2}], "a": [0]}]
        assert (s0.sent, s0.acks_sent, s1.sent, s1.acks_sent) == (1, 1, 1, 0)
        assert not any(unacked) and not s0.retransmits

    def test_a_dropped_batch_is_retransmitted_whole_and_delivered_once(self):
        cfg = DistConfig(**FAST)
        inbox, lost, (sa, sb) = _run_pair(
            cfg, [{"i": i} for i in range(4)], settle_s=0.4,
            faults_a="drop:kind=data,count=1")
        assert [m["i"] for _, m in inbox[1]] == [0, 1, 2, 3]
        assert (sa.sent, sa.dropped) == (1, 1)
        assert sa.retransmits >= 1 and not lost

    def test_each_copy_is_acked_on_its_connection_and_delivered_once(self):
        # A delivered frame is a turn: its ack leaves at its end, on the
        # connection it came by (nothing was sent back to ride on), and
        # a second copy is acked again but not delivered.
        async def go():
            _, b, inbox, _ = _endpoint_pair(DistConfig(**FAST))
            await b.start("127.0.0.1")
            reader, wire = asyncio.StreamReader(), _Wire()
            for seq in (0, 1, 1, 2):
                reader.feed_data(encode_frame({
                    "t": "data", "src": 0, "seq": seq,
                    "m": [{"i": seq}, {"j": seq}]}))
            reader.feed_eof()
            await b._read_conn(reader, wire)
            await b.close()
            return inbox[1], wire.frames, b.stats

        delivered, frames, stats = asyncio.run(go())
        assert delivered == [(0, {key: seq}) for seq in (0, 1, 2)
                             for key in "ij"]
        assert frames == [{"t": "ack", "src": 1, "seq": [seq]}
                          for seq in (0, 1, 1, 2)]
        assert (stats.acks_sent, stats.dup_discarded) == (4, 1)

    def test_an_ack_frame_retires_every_seq_it_lists(self):
        async def go():
            a, _, _, _ = _endpoint_pair(DistConfig(**FAST))
            await a.start("127.0.0.1")
            for seq in range(4):
                a.net.assign(0, 1, {"seq": seq}, 0.0)
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"t": "ack", "src": 1,
                                           "seq": [0, 1, 3]}))
            reader.feed_eof()
            await a._read_conn(reader, _Wire())
            unacked = sorted(a.net.channel(0, 1).unacked)
            await a.close()
            return unacked

        assert asyncio.run(go()) == [2]


class TestFrameAuth:
    """HMAC frame authentication (``PODS_DIST_SECRET``)."""

    SECRET = b"test-secret"

    def test_keyed_roundtrip(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"t": "data", "i": 9},
                                          self.SECRET))
            reader.feed_eof()
            return await read_frame(reader, self.SECRET)

        assert asyncio.run(go()) == {"t": "data", "i": 9}

    def test_corrupt_mac_dropped_counted_and_healed(self):
        # A flipped MAC bit drops the frame *below* the reliability
        # layer — the stream stays framed, the reject counter fires
        # once, and the next authentic frame is still delivered.
        rejects = []

        async def go():
            bad = bytearray(encode_frame({"i": 0}, self.SECRET))
            bad[6] ^= 0x01  # inside the 32-byte tag after the header
            reader = asyncio.StreamReader()
            reader.feed_data(bytes(bad))
            reader.feed_data(encode_frame({"i": 1}, self.SECRET))
            reader.feed_eof()
            return await read_frame(reader, self.SECRET,
                                    on_reject=lambda: rejects.append(1))

        assert asyncio.run(go()) == {"i": 1}
        assert len(rejects) == 1

    def test_tampered_body_rejected(self):
        async def go():
            frame = bytearray(encode_frame({"amount": 1}, self.SECRET))
            frame[-2] ^= 0x01  # flip a body byte, keep the tag
            reader = asyncio.StreamReader()
            reader.feed_data(bytes(frame))
            reader.feed_eof()
            return await read_frame(reader, self.SECRET)

        assert asyncio.run(go()) is None  # EOF after the only frame

    def test_unkeyed_frames_fail_verification(self):
        # A peer running without the secret cannot talk to a keyed
        # receiver: its bare frames never verify.  (The padding keeps
        # the stream long enough that the reader reaches verification
        # instead of hitting EOF while expecting the 32-byte tag.)
        rejects = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"i": 0}) + bytes(64))
            reader.feed_eof()
            return await read_frame(reader, self.SECRET,
                                    on_reject=lambda: rejects.append(1))

        assert asyncio.run(go()) is None  # nothing ever verifies
        assert rejects

    def test_endpoints_deliver_with_shared_secret(self, monkeypatch):
        monkeypatch.setenv("PODS_DIST_SECRET", "wire-key")
        cfg = DistConfig(**FAST)
        inbox, lost, (sa, sb) = _run_pair(cfg,
                                          [{"i": i} for i in range(4)],
                                          settle_s=0.3)
        assert [m["i"] for _, m in inbox[1]] == [0, 1, 2, 3]
        assert not lost
        assert sa.auth_rejected == 0 and sb.auth_rejected == 0

    def test_mismatched_secrets_exhaust_retransmits(self, monkeypatch):
        # Receiver keyed differently: every data frame is rejected and
        # counted, no ack ever returns, and the sender's retransmit
        # budget exhausts into a canonical peer-lost reason.
        async def go():
            cfg = DistConfig(**FAST, retransmit_budget=3)
            inbox = {0: [], 1: []}
            lost = []

            def make(node):
                inj = DistFaultInjector(DistFaultPlan.parse(""), node)
                return Endpoint(node, cfg, inj,
                                on_message=lambda src, m, n=node:
                                    inbox[n].append((src, m)),
                                on_peer_lost=lambda peer, why, detail:
                                    lost.append((peer, why, detail)))

            monkeypatch.setenv("PODS_DIST_SECRET", "key-a")
            a = make(0)
            monkeypatch.setenv("PODS_DIST_SECRET", "key-b")
            b = make(1)
            pa = await a.start("127.0.0.1")
            pb = await b.start("127.0.0.1")
            a.set_peers({1: ("127.0.0.1", pb)})
            b.set_peers({0: ("127.0.0.1", pa)})
            a.send(1, {"i": 0})
            a.flush()
            for _ in range(50):
                await asyncio.sleep(0.05)
                if lost:
                    break
            stats = (a.stats, b.stats)
            await a.close()
            await b.close()
            return inbox, lost, stats

        inbox, lost, (sa, sb) = asyncio.run(go())
        assert inbox[1] == []
        assert sb.auth_rejected >= 1
        assert lost and lost[0][0] == 1
        assert lost[0][1] == reasons.RETRANSMIT_EXHAUSTED
