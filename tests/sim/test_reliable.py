"""The reliable-delivery protocol and the progress guardrails.

Unit tests for the channel bookkeeping (:mod:`repro.sim.reliable`) plus
machine-level integration: chaos plans heal to bit-identical results,
unrecoverable plans raise the structured errors — never a hang — and the
layer is invisible when off.
"""

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.common.errors import DeadlockError, LivelockError, PEHaltError
from repro.sim.reliable import NetStats, ReliableNet

ROW_SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] * 0.5 + 1.0; }
    }
    s = 0.0;
    for j = 1 to n { next s = s + B[n, j]; }
    return s;
}
"""

N = 6


@pytest.fixture(scope="module")
def program():
    return compile_source(ROW_SWEEP)


@pytest.fixture(scope="module")
def clean(program):
    return program.run((N,), backend="sim", config=_config(2)).raw


def _config(pes, **kw):
    return SimConfig(machine=MachineConfig(num_pes=pes),
                     obs=ObsConfig(metrics=True), **kw)


class TestChannelBookkeeping:
    def test_sequence_numbers_per_channel(self):
        net = ReliableNet()
        assert net.assign(0, 1, "a", 0.0) == 0
        assert net.assign(0, 1, "b", 1.0) == 1
        assert net.assign(1, 0, "c", 2.0) == 0  # independent channel
        assert net.stats.sent == 3

    def test_ack_retires_exactly_once(self):
        net = ReliableNet()
        seq = net.assign(0, 1, "a", 0.0)
        assert net.on_ack(0, 1, seq)
        assert not net.on_ack(0, 1, seq)       # duplicate ack: no-op
        assert not net.on_ack(2, 3, 0)         # unknown channel: no-op
        assert not net.channel(0, 1).unacked

    def test_receiver_dedup(self):
        net = ReliableNet()
        assert net.on_deliver(0, 1, 0)
        assert not net.on_deliver(0, 1, 0)
        assert net.stats.dup_discarded == 1
        assert net.on_deliver(0, 1, 1)

    def test_pending_channels_deterministic_and_described(self):
        net = ReliableNet()
        net.assign(1, 0, "b", 0.0)
        net.assign(0, 1, "a", 0.0)
        pending = net.pending_channels()
        assert [(ch.src, ch.dst) for ch in pending] == [(0, 1), (1, 0)]
        assert "PE0->PE1: 1 unacked" in net.describe_pending()[0]

    def test_netstats_any_faults(self):
        stats = NetStats(sent=5, acks_sent=5)
        assert not stats.any_faults()      # clean reliable run
        stats.dropped = 1
        assert stats.any_faults()
        assert "dropped copies" in stats.table()


class TestHealing:
    """Chaos plans heal to the fault-free run's exact result."""

    def run_chaos(self, program, faults, **kw):
        kw.setdefault("retransmit_timeout_us", 1_000.0)
        return program.run((N,), backend="sim", faults=faults,
                           config=_config(2, **kw)).raw

    def test_drop_heals_via_retransmit(self, program, clean):
        res = self.run_chaos(program, "drop:kind=page,count=1")
        assert res.value == clean.value
        ns = res.stats.netstats
        assert ns.dropped == 1
        assert ns.retransmits >= 1
        # Healing costs modeled time: the lost copy waited out the timer.
        assert res.stats.finish_time_us > clean.stats.finish_time_us

    def test_duplicates_are_discarded(self, program, clean):
        res = self.run_chaos(program, "dup:count=0")
        assert res.value == clean.value
        assert res.stats.netstats.dup_discarded > 0

    def test_ack_loss_heals_via_reack(self, program, clean):
        res = self.run_chaos(program, "drop:kind=ack,count=2")
        assert res.value == clean.value
        ns = res.stats.netstats
        # The data arrived; the lost ack forces a retransmission whose
        # duplicate the receiver discards and re-acks.
        assert ns.retransmits >= 1
        assert ns.dup_discarded >= 1

    def test_reorder_and_delay_are_latency_only(self, program, clean):
        # Default (5 ms) retransmit timer: the injected lags resolve well
        # inside it, so nothing needs healing — latency is the only cost.
        res = self.run_chaos(program, "reorder:kind=page,count=1;"
                                      "delay:kind=value,count=2",
                             retransmit_timeout_us=5_000.0)
        assert res.value == clean.value
        ns = res.stats.netstats
        assert ns.delayed >= 2
        assert ns.retransmits == 0 and ns.dropped == 0

    def test_net_metrics_published(self, program):
        res = self.run_chaos(program, "drop:kind=page,count=1")
        rows = res.stats.registry.to_jsonl()
        assert '"name":"net.sent"' in rows
        assert '"name":"net.dropped"' in rows
        assert '"name":"net.retransmits"' in rows

    def test_retransmit_spans_for_perfetto(self, program):
        res = self.run_chaos(program, "drop:kind=page,count=1")
        spans = res.stats.log.net_spans
        assert spans, "retransmissions must record NET-track spans"
        pe, start, end, label = spans[0]
        assert end > start and "retransmit" in label


class TestGuardrails:
    """Unrecoverable faults fail structurally within bounded sim time."""

    def test_pe_halt_raises_structured_error(self, program):
        wall = 100_000.0
        with pytest.raises(PEHaltError) as err:
            program.run((N,), backend="sim", faults="pe-halt:pe=1,at=300",
                        config=_config(2, max_sim_time_us=wall,
                                       retransmit_timeout_us=1_000.0))
        exc = err.value
        assert exc.pe == 1
        assert exc.sim_time_us is not None and exc.sim_time_us <= wall
        assert "PE 1 halted" in str(exc)
        # The diagnosis names the undelivered channels to the dead PE.
        assert any("->PE1" in ch for ch in exc.channels)

    def test_budget_exhaustion_raises_livelock(self, program):
        with pytest.raises(LivelockError, match="retransmit budget"):
            program.run((N,), backend="sim", faults="drop:kind=read,count=0",
                        config=_config(2, retransmit_timeout_us=500.0,
                                       retransmit_budget=3))

    def test_max_sim_time_wall_never_hangs(self, program):
        # A 100%-lossy read channel with a huge retransmit budget would
        # retry for ~budget x timeout; the wall cuts the run off first
        # with a structured error, not a hang.
        with pytest.raises(LivelockError, match="max_sim_time_us"):
            program.run((N,), backend="sim", faults="drop:kind=read,count=0",
                        config=_config(2, retransmit_timeout_us=5_000.0,
                                       retransmit_budget=1000,
                                       max_sim_time_us=20_000.0))

    def test_halted_pe_fault_must_target_real_pe(self, program):
        from repro.backend import BackendConfigError

        with pytest.raises(BackendConfigError, match="pe-halt:pe=7"):
            program.run((N,), backend="sim", config=_config(2),
                        faults="pe-halt:pe=7")

    def test_deadlock_reports_last_progress_under_reliable(self):
        # A genuine dataflow deadlock (element never written) with the
        # reliable layer armed reports the last-progress time, so it
        # reads differently from a lost-message livelock.
        program = compile_source("""
function main(n) {
    A = matrix(n, n);
    A[1, 1] = 1.0;
    return A[2, 2];
}
""")
        with pytest.raises(DeadlockError, match="last progress at"):
            program.run((2,), backend="sim",
                        config=_config(2, reliable=True))


class TestZeroCost:
    """Layer off => byte-identical; layer on clean => value-identical."""

    def test_faults_off_publishes_no_net_rows(self, clean):
        assert clean.stats.netstats is None
        assert '"name":"net.' not in clean.stats.registry.to_jsonl()

    def test_reliable_on_clean_network_same_result(self, program, clean):
        res = program.run((N,), backend="sim",
                          config=_config(2, reliable=True)).raw
        assert res.value == clean.value
        ns = res.stats.netstats
        assert ns.sent > 0 and ns.acks_sent > 0
        assert not ns.any_faults()
        # Ack traffic costs modeled time; honesty over invisibility.
        assert res.stats.finish_time_us >= clean.stats.finish_time_us
