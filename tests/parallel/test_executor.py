"""Tests for the real-parallel multiprocessing backend."""

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

        arr = ShmArray("test_pods_rt3", (4,), create=True)
        try:
            with pytest.raises(ExecutionError) as exc:
                arr.read((2,), timeout_s=0.05)
            assert "deadlock" in str(exc.value)
        finally:
            arr.close()
            arr.unlink()

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
