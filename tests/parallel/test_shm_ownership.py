"""Shared segments never meet Python's ``resource_tracker``.

``ShmArray`` used to open its segment through ``SharedMemory`` (which
registers it with the tracker), unregister it, and later unlink it
through ``SharedMemory.unlink()`` (which unregisters it again): nothing
leaked, but the tracker printed a ``KeyError`` traceback at exit.
Ownership is explicit now — the run's manifest owns every segment — so
a clean run leaves stderr empty and ``/dev/shm`` as it found it.
"""

import os
import subprocess
import sys

import repro
from repro.common.chaoslib import shm_entries

SCRIPT = """
import os
from repro.apps.matmul import compile_matmul
from repro.parallel import ShmArray

program = compile_matmul()
for _ in range(2):  # the second run's workers inherit a live tracker
    result = program.run((8,), backend="parallel", parallelism=2)
    assert result.value.dims == (8, 8)

# Standalone host-side use: create, close, unlink.
arr = ShmArray(f"pods{os.getpid()}_ownership", (4,), create=True)
arr.write((1,), 1.5)
arr.close()
arr.unlink()
arr.unlink()  # idempotent
"""


def test_clean_parallel_run_leaves_stderr_and_dev_shm_empty():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once it has exited
    assert proc.returncode == 0, stderr
    assert stderr == ""
    # Every segment the script makes carries its process's prefix.
    assert shm_entries(proc.pid) == set()
