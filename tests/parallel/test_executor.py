"""Tests for the real-parallel multiprocessing backend."""

import math
import os

import pytest

from repro.api import compile_source
from repro.common.errors import ExecutionError


class TestShmArray:
    def test_write_read_roundtrip_types(self):
        from repro.parallel.shm_arrays import ShmArray

        arr = ShmArray("test_pods_rt1", (2, 3), create=True)
        try:
            arr.write((1, 1), 2.5)
            arr.write((1, 2), 42)
            arr.write((2, 3), True)
            assert arr.read((1, 1)) == 2.5
            assert arr.read((1, 2)) == 42
            assert isinstance(arr.read((1, 2)), int)
            assert arr.read((2, 3)) is True
        finally:
            arr.close()
            arr.unlink()

    def test_single_assignment_enforced(self):
        from repro.common.errors import SingleAssignmentViolation
        from repro.parallel.shm_arrays import ShmArray

        arr = ShmArray("test_pods_rt2", (4,), create=True)
        try:
            arr.write((1,), 1.0)
            with pytest.raises(SingleAssignmentViolation):
                arr.write((1,), 2.0)
        finally:
            arr.close()
            arr.unlink()

    def test_read_timeout_is_deadlock_diagnostic(self):
        from repro.parallel.shm_arrays import ShmArray

        arr = ShmArray("test_pods_rt3", (4,), create=True, timeout_s=0.05)
        try:
            with pytest.raises(ExecutionError) as exc:
                arr.read((2,))
            assert "deadlock" in str(exc.value)
        finally:
            arr.close()
            arr.unlink()

    # Exactness of the typed views: what goes in comes out, value and
    # type, also where the value region is not 8-aligned (3 flag bytes
    # after one 8-byte epoch slot put the first cell at byte 11).
    FLOATS = [-0.0, math.inf, 5e-324]
    INTS = [0, 2 ** 63 - 1, -2 ** 63]
    MIXED = [True, -(2 ** 63 - 1), False]

    @pytest.mark.parametrize("dims, values", [
        ((3,), FLOATS), ((3,), INTS), ((3,), MIXED),
        ((3, 3), FLOATS + INTS + MIXED),
    ], ids=["odd-floats", "odd-ints", "odd-mixed", "rank2"])
    def test_typed_views_round_trip_value_and_type(self, dims, values):
        from repro.parallel.shm_arrays import ShmArray
        from repro.runtime.arrays import ArrayHeader

        indices_of = ArrayHeader(1, dims, 32, 1).indices_of
        arr = ShmArray("test_pods_exact", dims, create=True, epoch_slots=1)
        try:
            for off, value in enumerate(values):
                arr.write(indices_of(off), value)
            dump, snap = arr.dump(), arr.snapshot()
            for off, value in enumerate(values):
                for got in (arr.read(indices_of(off)), dump[off], snap[off]):
                    assert type(got) is type(value)
                    assert repr(got) == repr(value)  # tells -0.0 apart
            assert len(dump) == len(values)
            assert snap[len(values):] == [None] * (arr.total - len(values))
        finally:
            arr.close()
            arr.unlink()
        assert "test_pods_exact" not in os.listdir("/dev/shm")

    def test_int_beyond_the_cell_is_refused_before_any_store(self):
        from repro.parallel.shm_arrays import ShmArray

        arr = ShmArray("test_pods_wide", (2, 2), create=True)
        try:
            for wide in (2 ** 63, -2 ** 63 - 1, 4611686018427387904 * 4):
                with pytest.raises(ExecutionError) as exc:
                    arr.write((1, 2), wide)
                text = str(exc.value)
                assert "test_pods_wide[1, 2]" in text and str(wide) in text
                assert "8-byte cell" in text
            assert arr.dump() == {}, "no flag set, element still writable"
            arr.write((1, 2), 2 ** 63 - 1)
            assert arr.read((1, 2)) == 2 ** 63 - 1
        finally:
            arr.close()
            arr.unlink()

    def test_replay_verifies_present_elements_through_the_views(self):
        from repro.common.errors import SingleAssignmentViolation
        from repro.parallel.shm_arrays import ShmArray

        first = ShmArray("test_pods_replay", (3,), create=True)
        replay = ShmArray("test_pods_replay", (3,), create=False, replay=True)
        try:
            for k, value in enumerate((1.5, 7, True), start=1):
                first.write((k,), value)
            for k, value in enumerate((1.5, 7, True), start=1):
                replay.write((k,), value)
            assert replay.replayed_present == 3
            with pytest.raises(SingleAssignmentViolation):
                replay.write((1,), 2.5)
        finally:
            replay.close()
            first.close()
            first.unlink()
        assert "test_pods_replay" not in os.listdir("/dev/shm")

    def test_snapshot_with_absent(self):
        from repro.parallel.shm_arrays import ShmArray

        arr = ShmArray("test_pods_rt4", (3,), create=True)
        try:
            arr.write((2,), 7)
            assert arr.snapshot() == [None, 7, None]
        finally:
            arr.close()
            arr.unlink()


class TestExecutor:
    FILL = """
    function main(n) {
        A = matrix(n, n);
        for i = 1 to n {
            for j = 1 to n { A[i, j] = 1.0 * i * j + 0.25; }
        }
        return A;
    }
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fill_matches_sequential(self, workers):
        p = compile_source(self.FILL)
        seq = p.run((10,), backend="seq")
        par = p.run((10,), backend="parallel", parallelism=workers).raw
        assert par.value.flat == seq.value.flat
        assert par.workers == workers

    def test_sweep_with_cross_worker_dependence(self):
        # Rows live on different workers; presence-bit spinning must
        # serialize the sweep correctly (real I-structure behaviour).
        p = compile_source("""
        function main(n) {
            B = matrix(n, n);
            for j = 1 to n { B[1, j] = 1.0 * j; }
            for i = 2 to n {
                for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
            }
            return B;
        }
        """)
        par = p.run((16,), backend="parallel", parallelism=4)
        for j in range(1, 17):
            assert par.value[16, j] == pytest.approx(j + 15.0)

    def test_scalar_result(self):
        p = compile_source("""
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * i; }
            s = 0;
            for i = 1 to n { next s = s + A[i]; }
            return s;
        }
        """)
        par = p.run((20,), backend="parallel", parallelism=2)
        assert par.value == sum(i * i for i in range(1, 21))

    def test_local_temporary_arrays_are_private(self):
        # An array allocated inside a distributed iteration must not
        # collide across workers.
        p = compile_source("""
        function rowsum(T, n) {
            s = 0.0;
            for k = 1 to n { next s = s + T[k]; }
            return s;
        }
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                T = array(n);
                for j = 1 to n { T[j] = 1.0 * i * j; }
                for j = 1 to n { A[i, j] = T[j] + 0.5; }
            }
            return A;
        }
        """)
        par = p.run((8,), backend="parallel", parallelism=4)
        assert par.value[5, 4] == pytest.approx(20.5)

    def test_worker_error_propagates(self):
        p = compile_source("""
        function main(n) {
            A = array(n);
            A[1] = 1;
            A[1] = 2;
            return A;
        }
        """)
        with pytest.raises(ExecutionError):
            p.run((4,), backend="parallel", parallelism=2)

    def test_no_leaked_segments(self):
        import glob

        p = compile_source(self.FILL)
        p.run((6,), backend="parallel", parallelism=2)
        assert not glob.glob("/dev/shm/pods*"), "leaked shared memory"
