"""Tests for the Pingali & Rogers-style static baseline."""

import pytest

from repro.api import compile_source

FILL = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = sqrt(1.0 * i * j) + 1.0; }
    }
    return A;
}
"""

SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
    }
    return B;
}
"""


class TestCorrectness:
    @pytest.mark.parametrize("pes", [1, 2, 4, 8])
    def test_fill_matches_sequential(self, pes):
        p = compile_source(FILL)
        seq = p.run((8,), backend="seq")
        st = p.run((8,), backend="static", parallelism=pes)
        assert st.value.flat == seq.value.flat

    @pytest.mark.parametrize("pes", [1, 3, 5])
    def test_sweep_matches_sequential(self, pes):
        p = compile_source(SWEEP)
        seq = p.run((9,), backend="seq")
        st = p.run((9,), backend="static", parallelism=pes)
        assert st.value.flat == seq.value.flat

    def test_scalar_program(self):
        p = compile_source("""
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s;
        }
        """)
        assert p.run((10,), backend="static", parallelism=4).value == 55


class TestTimingModel:
    def test_one_pe_close_to_sequential(self):
        p = compile_source(FILL)
        seq = p.run((12,), backend="seq")
        st = p.run((12,), backend="static", parallelism=1)
        # Same cost model, no remote traffic on one PE.
        assert st.time_us == pytest.approx(seq.time_us, rel=0.05)

    def test_parallel_loop_speeds_up(self):
        p = compile_source(FILL)
        t1 = p.run((32,), backend="static", parallelism=1).time_us
        t8 = p.run((32,), backend="static", parallelism=8).time_us
        assert t1 / t8 > 3.0

    def test_pe_clocks_reported(self):
        p = compile_source(FILL)
        st = p.run((16,), backend="static", parallelism=4).raw
        assert len(st.pe_times) == 4
        assert max(st.pe_times) == st.time_us

    def test_remote_misses_counted_for_cross_pe_reads(self):
        p = compile_source(SWEEP)
        st = p.run((16,), backend="static", parallelism=4).raw
        assert st.remote_misses > 0

    def test_sweep_pipelines_rather_than_serializes(self):
        # With element-availability times, PE k+1 starts its rows after a
        # stagger, so the sweep is faster than fully serialized chunks.
        p = compile_source(SWEEP)
        st1 = p.run((24,), backend="static", parallelism=1)
        st4 = p.run((24,), backend="static", parallelism=4)
        # Not fully serial: some overlap must survive the transfers.
        assert st4.time_us < st1.time_us * 1.5

    def test_blocking_transfers_hurt_more_than_pods(self):
        # At a size where remote traffic matters, the PODS machine with
        # split-phase reads should beat the blocking static model on the
        # sweep's critical path... eventually; here we just require the
        # static model to charge visible transfer time.
        p = compile_source(SWEEP)
        st = p.run((16,), backend="static", parallelism=4)
        seq = p.run((16,), backend="seq")
        assert st.time_us > seq.time_us / 4  # transfers bound the win
