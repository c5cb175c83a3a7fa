"""End-to-end smoke for the ``dist`` backend: healthy runs, telemetry
surface, takeover healing and the structured node-loss abort.

The conformance suite covers value/metric/taxonomy parity across the
whole app catalog; these tests pin the backend-specific surfaces —
the :class:`DistResult` fields, the recovery ladder and the render
hooks — on one small program so they stay fast.
"""

import pytest

from repro.api import compile_source
from repro.backend import classify_error, get_backend, render_error
from repro.common.config import DistConfig
from repro.common.errors import NodeLossError
from repro.common.retry import RetryPolicy

# B's loop reads A mirrored (A[n+1-i]), so at 2+ nodes roughly half
# the reads are remote split-phase exchanges.  Every element of both
# arrays is written by exactly one distributed iteration — SPMD
# replication of serial code means a bare write outside a distributed
# loop would (correctly) trip single assignment on every node.
SOURCE = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = i * 1.0; }
    B = array(n);
    for i = 1 to n { B[i] = A[n + 1 - i] + A[i]; }
    s = 0.0;
    for i = 1 to n { next s = s + B[i]; }
    return s;
}
"""

# Tight supervision windows so failure scenarios resolve quickly.
FAST = dict(heartbeat_interval_s=0.04, heartbeat_timeout_s=0.6,
            poll_interval_s=0.02,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05))


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture(scope="module")
def oracle(program):
    return get_backend("seq").run(program, (12,)).value


class TestHealthyRuns:
    def test_value_and_result_surface(self, program, oracle):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        assert r.value == pytest.approx(oracle, rel=1e-12)
        assert r.backend == "dist"
        assert r.parallelism == 2
        assert r.wall_time_s is not None and r.wall_time_s > 0
        assert r.registry is not None

    def test_dist_result_fields(self, program):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        raw = r.raw
        assert raw.nodes == 2
        assert len(raw.worker_stats) == 2
        assert sum(t.shared_writes for t in raw.worker_stats) > 0
        assert raw.recovery is not None and not raw.recovery.events
        assert raw.netstats is not None and raw.netstats.sent > 0
        assert "node" in raw.telemetry_table()

    def test_registry_has_distributed_families(self, program):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        reg = r.registry
        assert reg.total("array.element_writes") > 0
        assert reg.total("rf.items") > 0
        assert any(row.labels_dict().get("cause") == "remote-read"
                   for row in reg.select("wait.us"))

    def test_array_result_gathers_segments(self, oracle):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 2.0; }
            return A;
        }
        """
        r = get_backend("dist").run(compile_source(src), (8,),
                                    parallelism=2)
        assert list(r.value.flat) == [2.0 * i for i in range(1, 9)]


class TestRecovery:
    def test_node_kill_heals_by_takeover(self, program, oracle):
        cfg = DistConfig(nodes=3, **FAST)
        r = get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
        assert r.value == pytest.approx(oracle, rel=1e-12)
        assert r.raw.recovery.takeovers == 1
        kinds = [e.kind for e in r.raw.recovery.events]
        assert "failure" in kinds and "takeover" in kinds

    def test_budget_exhaustion_raises_node_loss(self, program):
        cfg = DistConfig(nodes=2, max_takeovers=0, **FAST)
        with pytest.raises(NodeLossError) as excinfo:
            get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
        exc = excinfo.value
        assert classify_error(exc) == "node-loss"
        rendered = render_error(exc)
        assert "\n" not in rendered
        assert rendered.startswith("error[NodeLossError/node-loss]: ")
        assert any(f.worker == 1 for f in exc.failures)

    def test_recovery_disabled_fails_fast(self, program):
        cfg = DistConfig(nodes=2,
                         **{**FAST, "retry": RetryPolicy(enabled=False)})
        with pytest.raises(NodeLossError, match="recovery is disabled"):
            get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
