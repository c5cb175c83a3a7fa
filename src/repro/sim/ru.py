"""The Routing Unit and the network (paper Section 5.1, Figure 7).

Like every unit, plain functions over the machine ``M`` and a PE
(:mod:`repro.sim.machine`).  The RU batches the tokens bound for one PE
(19.5 us each, up to ``token_batch`` per message, a partial batch sent
``FLUSH_DELAY`` after its first token), passes a distributed spawn's
token set down a binomial spanning tree, and sends the messages the
other units form (:func:`send_msg`).

:func:`transmit` is the one way onto the wire: Dunigan's iPSC/2 latency
plus 2.5 us average propagation and the optional jitter.  A message
arrives as the event of the unit function that receives it
(``Machine.receivers``).  Under a fault plan every data message travels
as a ``SeqMsg`` copy that the receiver acks, every copy (acks too) meets
the injector's drop / delay / dup, and an unacked message is
retransmitted on a timer (:mod:`repro.sim.reliable`).
"""

from __future__ import annotations

from repro.runtime.tokens import (
    AckMsg,
    BroadcastTokensMsg,
    SeqMsg,
    TokenBatchMsg,
)
from repro.sim import mu
from repro.sim import timing as T


def send_token(M, pe, dst_pid: int, token) -> None:
    if dst_pid == pe.pid:
        pe.stats.tokens_sent_local += 1
        mu.enqueue(M, pe, token)
        return
    pe.stats.tokens_sent_remote += 1
    done = M._serve(pe, "RU", T.TOKEN_BATCH_COST)
    batch = pe.batches.setdefault(dst_pid, [])
    batch.append(token)
    if len(batch) >= M.mc.token_batch:
        M.schedule(done, flush, M, pe, dst_pid)
    elif dst_pid not in pe.flush_scheduled:
        pe.flush_scheduled.add(dst_pid)
        M.schedule(done + T.FLUSH_DELAY, flush, M, pe, dst_pid, True)


def flush(M, pe, dst_pid: int, timer: bool = False) -> None:
    """Send ``pe``'s batch for ``dst_pid``: it filled, or (``timer``)
    its first token has waited ``FLUSH_DELAY``."""
    if timer:
        pe.flush_scheduled.discard(dst_pid)
    if pe.halted:
        return
    batch = pe.batches.get(dst_pid)
    if not batch:
        return
    pe.batches[dst_pid] = []
    transmit(M, pe, TokenBatchMsg(pe.pid, dst_pid, tuple(batch)))


def receive_batch(M, msg: TokenBatchMsg) -> None:
    pe = M.pes[msg.dst_pe]
    if pe.halted:
        return
    for token in msg.tokens:
        mu.enqueue(M, pe, token)


def bcast_children(pid: int, root: int, num: int) -> list[int]:
    """Children of ``pid`` in the binomial tree over ``num`` PEs rooted
    at ``root``."""
    rel = (pid - root) % num
    children = []
    bit = 1
    while bit < num:
        if rel < bit:
            child = rel + bit
            if child < num:
                children.append((child + root) % num)
        bit <<= 1
    return children


def bcast_tokens(M, pe, root: int, tokens: tuple) -> None:
    """Deliver a distributed-spawn token set locally and forward it
    down the spanning tree."""
    if pe.halted:
        return
    for token in tokens:
        pe.stats.tokens_sent_local += 1
        mu.enqueue(M, pe, token)
    for child in bcast_children(pe.pid, root, M.mc.num_pes):
        pe.stats.tokens_sent_remote += len(tokens)
        done = M._serve(pe, "RU", T.TOKEN_BATCH_COST * len(tokens))
        msg = BroadcastTokensMsg(pe.pid, child, root, tokens)
        M.schedule(done, transmit, M, pe, msg)


def receive_bcast(M, msg: BroadcastTokensMsg) -> None:
    bcast_tokens(M, M.pes[msg.dst_pe], msg.root, msg.tokens)


def send_msg(M, pe, msg) -> None:
    done = M._serve(pe, "RU", T.RU_MSG_COST)
    M.schedule(done, transmit, M, pe, msg)


def transmit(M, pe, msg, seq: int | None = None) -> None:
    """Put one copy of ``msg`` on the wire.  Under a fault plan a data
    message's copy is a ``SeqMsg``: its first (``seq`` None: numbered
    here, its retransmit timer armed after) or a retransmission of
    ``seq``.  An ``AckMsg`` is its own copy and is never logged."""
    if pe.halted:
        return  # a crashed node sends nothing
    net = M._net
    first = net is not None and seq is None and msg.kind != "ack"
    if first:
        seq = net.assign(pe.pid, msg.dst_pe, msg, M.now)
    copy = msg if seq is None else SeqMsg(seq, msg)
    now = M.now
    latency = T.message_latency(copy.wire_bytes,
                                propagation_us=M.mc.avg_hops * 1.0)
    if M._rng is not None:
        latency += M._rng.uniform(0.0, M.config.jitter_max_us)
    pe.stats.messages_sent += 1
    pe.stats.bytes_sent += copy.wire_bytes
    if net is None:
        if M.log is not None:
            M.log.message(now, pe.pid, msg, latency)
        M.schedule(now + latency, M.receivers[type(msg)], M, msg)
        return
    dec = M._injector.decide(pe.pid, msg.dst_pe, msg.kind)
    arrive = ack_receive if copy is msg else deliver
    if copy is not msg and M.log is not None:
        M.log.message(now, pe.pid, msg, latency, copy, dec, not first)
    if dec.drop:
        net.stats.dropped += 1
    else:
        if dec.extra_us:
            net.stats.delayed += 1
        M.schedule(now + latency + dec.extra_us, arrive, M, copy)
    if dec.dup:
        net.stats.duplicated += 1
        M.schedule(now + latency, arrive, M, copy)
    if first:
        M.schedule(now + M.config.retransmit_timeout_us, net_check, M,
                   pe.pid, msg.dst_pe, seq)


# -- reliable delivery (repro.sim.reliable) -----------------------------


def deliver(M, copy: SeqMsg) -> None:
    """A sequenced copy arrived: ack it (a lost ack is healed by the
    sender retransmitting and this re-acking the duplicate), and hand
    the message to its receiver the first time only."""
    net = M._net
    pe = M.pes[copy.dst_pe]
    if pe.halted:
        net.stats.halt_lost += 1
        return
    # Acks are fire-and-forget: never acked themselves.
    net.stats.acks_sent += 1
    done = M._serve(pe, "RU", T.ACK_COST)
    M.schedule(done, transmit, M, pe, AckMsg(pe.pid, copy.src_pe, copy.seq))
    if net.on_deliver(copy.src_pe, copy.dst_pe, copy.seq):
        M.receivers[type(copy.msg)](M, copy.msg)


def ack_receive(M, ack: AckMsg) -> None:
    if M.pes[ack.dst_pe].halted:
        M._net.stats.halt_lost += 1
        return
    # The ack flows receiver -> sender, so the data channel it
    # retires is keyed (ack.dst_pe, ack.src_pe).
    M._net.on_ack(ack.dst_pe, ack.src_pe, ack.seq)


def net_check(M, src: int, dst: int, seq: int) -> None:
    """Retransmit timer: re-send an unacked message, within budget."""
    ch = M._net.channels.get((src, dst))
    if ch is None:
        return
    entry = ch.unacked.get(seq)
    if entry is None:
        return  # acked in time
    if M.result is not mu.UNSET and not M.frames and seq in ch.seen:
        # The program already completed and the receiver has this
        # message: only its ack was lost, and that straggler can no
        # longer matter (e.g. an ack racing a halt).  A message never
        # delivered still can — a fire-and-forget AWRITE, or the
        # tokens that instantiate an empty-Range-Filter replica — so
        # it keeps being retransmitted.
        ch.unacked.pop(seq, None)
        return
    pe = M.pes[src]
    if pe.halted:
        return  # a dead sender cannot retransmit; drain diagnosis reports it
    cfg = M.config
    # The budget bounds consecutive unacked retries of one message — a
    # head-of-line copy retried this often means a dead or partitioned
    # receiver.  The channel's cumulative retransmit count is reported
    # but never gates: many distinct healed losses on a busy channel
    # are recovery, not livelock.
    if entry[2] >= cfg.retransmit_budget:
        if M.pes[dst].halted:
            raise M._stuck_error(None, halted_pe=dst)
        raise M._stuck_error(
            f"channel PE{src}->PE{dst} exhausted its retransmit "
            f"budget ({cfg.retransmit_budget}) on seq {seq}")
    if M.now - M._last_progress_us > cfg.quiescence_us:
        raise M._stuck_error(
            f"no progress for {cfg.quiescence_us:g} us "
            "(only retransmissions firing)")
    ch.retransmits += 1
    entry[2] += 1
    M._net.stats.retransmits += 1
    done = M._serve(pe, "RU", T.RU_MSG_COST)
    M.schedule(done, transmit, M, pe, entry[0], seq)
    M.schedule(M.now + cfg.retransmit_timeout_us, net_check, M, src, dst,
               seq)
