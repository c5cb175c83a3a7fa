"""The leak audit counts only the audited process's own segments.

Every ``/dev/shm`` segment a process makes (each ``parallel`` run's
tag, a standalone ``ShmArray``) starts with ``shm_prefix()`` —
``pods<pid>_`` — so a run going on beside the audited one, in another
process, must not show up as a leak; one made by this process must.
"""

import os

from repro.common.chaoslib import (check_leaks, open_sockets, shm_entries,
                                   shm_prefix)
from repro.parallel.shm_arrays import ShmArray


def test_shm_prefix_names_the_process():
    assert shm_prefix() == f"pods{os.getpid()}_"
    assert shm_prefix(12) == "pods12_"


def test_audit_reports_own_segments_only():
    sockets0, shm0 = open_sockets(), shm_entries()
    mine = f"{shm_prefix()}leakaudit"
    others = [f"{shm_prefix(os.getppid())}leakaudit",
              # digits that extend this pid: the underscore tells apart
              f"pods{os.getpid()}7_leakaudit"]
    made = []
    try:
        for name in [mine, *others]:
            arr = ShmArray(name, (4,), create=True)
            made.append(arr)
            arr.close()
        problems: list[str] = []
        check_leaks(problems, sockets0, shm0)
        assert problems == [f"leaked shm segments: ['/dev/shm/{mine}']"]
    finally:
        for arr in made:
            arr.unlink()
    assert shm_entries() == shm0
