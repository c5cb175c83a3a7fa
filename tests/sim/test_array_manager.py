"""White-box tests of the Array Manager: caching, deferral, forwarded
writes, allocate-broadcast races, and the EU's local access."""

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ExecutionError, PEHaltError
from repro.runtime.tokens import ReadRequestMsg, RemoteWriteMsg, ReturnAddress
from repro.sim.machine import Machine
from repro.translator import isa
from repro.translator.isa import Instr, SPTemplate, const, slot


def build(src, pes=2, **mc):
    program = compile_source(src)
    return Machine(program.pods, SimConfig(machine=MachineConfig(
        num_pes=pes, **mc)))


GATHER = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = i * 2; }
    s = 0;
    for i = 1 to n { next s = s + A[i]; }
    return s;
}
"""


class TestCaching:
    def test_page_hits_after_first_miss(self):
        m = build(GATHER, pes=2)
        r = m.run((64,))
        assert r.value == 64 * 65
        # The gather loop reads PE1's 32 elements remotely; after the
        # first page fetch most reads hit the cache.
        assert r.stats.total("cache_hits") > 20
        assert r.stats.total("pages_sent") < 10

    def test_cache_disabled_ships_more_pages(self):
        with_cache = build(GATHER, pes=2).run((64,))
        without = build(GATHER, pes=2, cache_enabled=False).run((64,))
        assert without.value == with_cache.value
        assert (without.stats.total("pages_sent")
                > with_cache.stats.total("pages_sent"))

    def test_incomplete_page_refetched(self):
        # The consumer races ahead of the producer: early page snapshots
        # have holes, forcing refetches (the paper's "the same page may
        # be copied multiple times").
        src = """
        function main(n) {
            A = array(n);
            B = array(n);
            for i = 1 to n { A[i] = i; }
            for i = 1 to n { B[i] = A[i] + A[min(i + 7, n)]; }
            s = 0;
            for i = 1 to n { next s = s + B[i]; }
            return s;
        }
        """
        m = build(src, pes=2)
        r = m.run((64,))
        expect = sum(i + min(i + 7, 64) for i in range(1, 65))
        assert r.value == expect


class TestDeferredRemote:
    def test_remote_reader_ahead_of_writer(self):
        # The reduction starts immediately; remote elements it needs are
        # deferred at their owner and answered on write.
        m = build(GATHER, pes=4)
        r = m.run((64,))
        assert r.value == 64 * 65
        assert r.stats.total("deferred_remote") >= 0  # races are timing
        # Every deferred read was eventually serviced.
        for pe in m.pes:
            for seg in pe.segments.values():
                assert seg.pending_offsets() == []


class TestForwardedWrites:
    def test_responsibility_vs_ownership(self):
        # 4x6 over 2 PEs with page 5: the segment boundary (offset 15)
        # falls inside row 3, whose first element PE0 owns -> PE0 is
        # responsible for the whole row and forwards the tail writes to
        # PE1 (the Figure 6 situation).
        src = """
        function main(n) {
            A = matrix(4, 6);
            for i = 1 to 4 {
                for j = 1 to 6 { A[i, j] = i * 10 + j; }
            }
            return A;
        }
        """
        m = build(src, pes=2, page_size=5)
        r = m.run((0,))
        for i in range(1, 5):
            for j in range(1, 7):
                assert r.value[i, j] == i * 10 + j
        assert m.pes[0].stats.array_writes_remote + \
            m.pes[1].stats.array_writes_remote > 0


class TestBroadcastRaces:
    def test_read_request_before_header_installed(self):
        # Deliver a remote read request for an array whose allocate
        # broadcast has not reached this PE: the AM must requeue it and
        # answer once the header lands.
        m = build(GATHER, pes=2)
        # Prime: run normally first to create machinery, then check the
        # requeue path directly on a fresh machine.
        m2 = build(GATHER, pes=2)
        waiter = ReturnAddress(0, 0, 0)
        msg = ReadRequestMsg(0, 1, array_id=999, offset=0, waiter=waiter)
        m2.schedule(0.0, m2._am_remote_read_request, m2.pes[1], msg)
        # Run the program; the stray request keeps requeueing but the
        # program itself must finish correctly.
        with pytest.raises(Exception):
            # array 999 never exists: the machine eventually trips its
            # event limit rather than hanging silently.
            m2.config = m2.config.__class__(
                machine=m2.config.machine, max_events=5000)
            m2.run((8,))

    def test_remote_write_before_header(self):
        m = build(GATHER, pes=2)
        msg = RemoteWriteMsg(0, 1, array_id=7, offset=0, value=1.0)
        # Header for array 7 does not exist yet; the write requeues and
        # eventually lands once the real program's arrays appear...
        # (array ids are sequential, the program's array gets id 1, so
        # id 7 never appears: like above, bounded failure not a hang).
        from repro.common.errors import ExecutionError

        m.config = m.config.__class__(machine=m.config.machine,
                                      max_events=5000)
        m.schedule(0.0, m._am_write, m.pes[1], 7, 0, 1.0, True)
        with pytest.raises(ExecutionError):
            m.run((8,))


class TestArrayFaults:
    def test_write_to_wrong_rank(self):
        src = """
        function main(n) {
            A = matrix(n, n);
            A[1] = 5;
            return A;
        }
        """
        from repro.common.errors import BoundsViolation

        with pytest.raises(BoundsViolation):
            build(src, pes=1).run((4,))

    def test_fractional_index(self):
        src = """
        function main(n) {
            A = array(n);
            A[n / 2] = 1;
            return A;
        }
        """
        from repro.common.errors import BoundsViolation

        with pytest.raises(BoundsViolation):
            build(src, pes=1).run((4,))


def _main(code, num_slots):
    """A hand-written ``main``: no parameters, return address in slot 0."""
    return SPTemplate(block_id=0, name="main", kind="function", code=code,
                      num_slots=num_slots, inputs=(0,))


def _machine(templates, pes=1, **mc):
    program = isa.PodsProgram(templates, entry_block=0, arity=0)
    return Machine(program, SimConfig(machine=MachineConfig(
        num_pes=pes, **mc)))


def _after(m, block, pc, then):
    """Run ``then(M, pe, frame, t)`` right after instruction ``pc`` of
    ``block`` issues (not when it blocks): a white-box probe between an
    access's issue and its Array Manager event."""
    table = m._dcode[block]
    handler = table[pc]

    def probe(M, pe, frame, t):
        out = handler(M, pe, frame, t)
        if out[1] is not None:
            then(M, pe, frame, t)
        return out

    table[pc] = probe


class TestLocalAccess:
    """The EU's access to an element its own PE holds: issue, the local
    Array Manager, deferral and the reply into the frame, each at its
    edges (a non-array subscript, a reader ahead of its writer, a reader
    that ended, a halt, a header still in flight)."""

    @pytest.mark.parametrize("op", ["aread", "awrite"])
    def test_non_array_subscript_text(self, op):
        access = (Instr(isa.AREAD, dst=1, a=const(5), args=(const(1),))
                  if op == "aread" else
                  Instr(isa.AWRITE, a=const(5), args=(const(1),),
                        b=const(2)))
        m = _machine({0: _main([
            Instr(isa.NOP),
            access,
            Instr(isa.SENDR, a=slot(0), b=const(0)),
            Instr(isa.END),
        ], num_slots=2)})
        with pytest.raises(ExecutionError) as exc:
            m.run(())
        assert str(exc.value) == (
            "main pc=1: subscript applied to non-array value 5")
        assert m.pes[0].stats.instructions == 2

    def test_local_read_ahead_of_local_writer(self):
        # The read is issued before the child that writes the element
        # runs: the AM defers it, and the write wakes it on the same PE.
        writer = SPTemplate(
            block_id=1, name="writer", kind="function", code=[
                Instr(isa.AWRITE, a=slot(0), args=(const(3),), b=const(41)),
                Instr(isa.SENDR, a=slot(1), b=const(0)),
                Instr(isa.END),
            ], num_slots=2, inputs=(0, 1))
        m = _machine({0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(4),)),
            Instr(isa.AREAD, dst=2, a=slot(1), args=(const(3),)),
            Instr(isa.SPAWN, block=1, args=(slot(1),), result_slots=(3,)),
            Instr(isa.BIN, dst=4, fn="add", a=slot(2), b=const(1)),
            Instr(isa.BIN, dst=4, fn="add", a=slot(4), b=slot(3)),
            Instr(isa.SENDR, a=slot(0), b=slot(4)),
            Instr(isa.END),
        ], num_slots=5), 1: writer})
        r = m.run(())
        assert r.value == 42
        pe = m.pes[0]
        assert pe.stats.deferred_local == 1
        assert pe.stats.array_reads_local == 1
        assert pe.stats.array_writes_local == 1
        assert m.late_tokens == 0
        assert all(seg.pending_offsets() == [] for seg in pe.segments.values())

    def test_local_deferred_read_woken_by_forwarded_write(self):
        # main (PE 0) reads A[1], which PE 0 holds, before anything
        # wrote it.  The writer lands on PE 1 (round-robin placement,
        # second function spawn) and is not the owner, so its write
        # reaches PE 0 as a RemoteWriteMsg that wakes the local waiter.
        noop = SPTemplate(
            block_id=1, name="noop", kind="function", code=[
                Instr(isa.SENDR, a=slot(0), b=const(0)),
                Instr(isa.END),
            ], num_slots=1, inputs=(0,))
        writer = SPTemplate(
            block_id=2, name="writer", kind="function", code=[
                Instr(isa.AWRITE, a=slot(0), args=(const(1),), b=const(7)),
                Instr(isa.SENDR, a=slot(1), b=const(0)),
                Instr(isa.END),
            ], num_slots=2, inputs=(0, 1))
        m = _machine({0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(64),)),
            Instr(isa.AREAD, dst=2, a=slot(1), args=(const(1),)),
            Instr(isa.SPAWN, block=1, args=(), result_slots=(3,)),
            Instr(isa.SPAWN, block=2, args=(slot(1),), result_slots=(4,)),
            Instr(isa.BIN, dst=5, fn="add", a=slot(3), b=slot(4)),
            Instr(isa.BIN, dst=5, fn="add", a=slot(5), b=slot(2)),
            Instr(isa.SENDR, a=slot(0), b=slot(5)),
            Instr(isa.END),
        ], num_slots=6), 1: noop, 2: writer}, pes=2,
            function_placement="round_robin")
        r = m.run(())
        assert r.value == 7
        owner, forwarder = m.pes
        assert owner.stats.deferred_local == 1
        assert owner.stats.array_reads_local == 1
        assert owner.stats.array_writes_local == 1
        assert forwarder.stats.array_writes_remote == 1
        assert forwarder.stats.array_writes_local == 0
        assert owner.stats.messages_sent > 0 and forwarder.stats.messages_sent > 0

    def test_reply_to_an_ended_sp_is_a_late_token(self):
        # A second ALLOC keeps the AM busy, so the read of the present
        # A[1] is served after main has ended: its reply, and the
        # second array's id, both find a DONE frame.
        m = _machine({0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(4),)),
            Instr(isa.AWRITE, a=slot(1), args=(const(1),), b=const(5)),
            Instr(isa.ALLOC, dst=3, args=(const(4),)),
            Instr(isa.AREAD, dst=2, a=slot(1), args=(const(1),)),
            Instr(isa.SENDR, a=slot(0), b=const(9)),
            Instr(isa.END),
        ], num_slots=4)})
        r = m.run(())
        assert r.value == 9
        assert m.pes[0].stats.array_reads_local == 1
        assert m.pes[0].stats.deferred_local == 0
        assert m.late_tokens == 2

    def test_deferred_reply_to_an_ended_sp_is_a_late_token(self):
        # The read is deferred and main ends before the child's write
        # wakes it; the child's own result reaches the ended main too.
        writer = SPTemplate(
            block_id=1, name="writer", kind="function", code=[
                Instr(isa.AWRITE, a=slot(0), args=(const(2),), b=const(3)),
                Instr(isa.SENDR, a=slot(1), b=const(0)),
                Instr(isa.END),
            ], num_slots=2, inputs=(0, 1))
        m = _machine({0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(4),)),
            Instr(isa.AREAD, dst=2, a=slot(1), args=(const(2),)),
            Instr(isa.SPAWN, block=1, args=(slot(1),), result_slots=(3,)),
            Instr(isa.SENDR, a=slot(0), b=const(8)),
            Instr(isa.END),
        ], num_slots=4), 1: writer})
        r = m.run(())
        assert r.value == 8
        assert m.pes[0].stats.deferred_local == 1
        assert m.late_tokens == 2

    @pytest.mark.parametrize("op", ["aread", "awrite"])
    def test_halt_between_issue_and_service_drops_the_access(self, op):
        access = (Instr(isa.AREAD, dst=2, a=slot(1), args=(const(1),))
                  if op == "aread" else
                  Instr(isa.AWRITE, a=slot(1), args=(const(1),),
                        b=const(6)))
        m = _machine({0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(4),)),
            access,
            Instr(isa.SENDR, a=slot(0), b=const(1)),
            Instr(isa.END),
        ], num_slots=3)})
        at_issue = {}

        def halt(M, pe, frame, t):
            at_issue.update(am=pe.stats.busy["AM"], uid=frame.uid)
            M._pe_halt(pe)

        _after(m, 0, 1, halt)
        with pytest.raises(PEHaltError):
            m.run(())
        pe = m.pes[0]
        assert at_issue["am"] > 0  # the ALLOC was served
        assert pe.stats.busy["AM"] == at_issue["am"]
        assert pe.stats.array_reads_local == 0
        assert pe.stats.array_writes_local == 0
        assert pe.stats.deferred_local == 0
        assert m.late_tokens == 0
        assert list(pe.segments[1].items()) == []
        assert pe.segments[1].pending_offsets() == []

    def test_access_before_its_header_blocks_and_counts_twice(self):
        # The reader runs on PE 1 and reads A[40], which PE 1 holds; PE
        # 1's header install is held back, so the read blocks on the
        # header and re-executes (counted again) once it lands.
        noop = SPTemplate(
            block_id=1, name="noop", kind="function", code=[
                Instr(isa.SENDR, a=slot(0), b=const(0)),
                Instr(isa.END),
            ], num_slots=1, inputs=(0,))
        reader = SPTemplate(
            block_id=2, name="reader", kind="function", code=[
                Instr(isa.AREAD, dst=2, a=slot(0), args=(const(40),)),
                Instr(isa.SENDR, a=slot(1), b=slot(2)),
                Instr(isa.END),
            ], num_slots=3, inputs=(0, 1))
        templates = {0: _main([
            Instr(isa.ALLOC, dst=1, args=(const(64),)),
            Instr(isa.AWRITE, a=slot(1), args=(const(40),), b=const(9)),
            Instr(isa.SPAWN, block=1, args=(), result_slots=(3,)),
            Instr(isa.SPAWN, block=2, args=(slot(1),), result_slots=(2,)),
            Instr(isa.BIN, dst=2, fn="add", a=slot(2), b=slot(3)),
            Instr(isa.SENDR, a=slot(0), b=slot(2)),
            Instr(isa.END),
        ], num_slots=4), 1: noop, 2: reader}

        def run(hold_us):
            m = _machine(templates, pes=2, function_placement="round_robin")
            install, blocks = m._install_header, []

            def held(pe, aid, dims):
                if pe.pid == 1 and hold_us and m.now < hold_us:
                    m.schedule(hold_us, m._install_header, pe, aid, dims)
                    return
                install(pe, aid, dims)

            block_on_header = m._block_on_header

            def counted(pe, frame, aid, t):
                blocks.append((pe.pid, frame.name, aid))
                return block_on_header(pe, frame, aid, t)

            m._install_header = held
            m._block_on_header = counted
            r = m.run(())
            return m, r, blocks

        m0, r0, blocks0 = run(0)
        m1, r1, blocks1 = run(5000.0)
        assert r0.value == r1.value == 9
        assert blocks0 == []
        assert blocks1 == [(1, "reader", 1)]
        assert m1.pes[1].stats.array_reads_local == 1
        assert (m1.pes[1].stats.instructions
                == m0.pes[1].stats.instructions + 1)
        assert (m1.pes[0].stats.instructions
                == m0.pes[0].stats.instructions)
