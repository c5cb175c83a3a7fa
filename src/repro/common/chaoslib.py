"""Shared plumbing under the chaos runner and the crash-restart drill.

:mod:`repro.chaos` (the one fault-matrix runner), :mod:`repro.ckpt.crashtest`
and the end-to-end benchmark harness share two pieces: leak accounting
around a run (child processes, open sockets, ``/dev/shm`` segments) and
the scenario-matrix loop that times each case, prints the ``ok``/``FAIL``
table and the summary line.  The segment-name prefix the audit keys on,
:func:`shm_prefix`, is the one ``run_parallel`` tags its segments with.

Everything here is stdlib-only and side-effect-free on import, so the
drivers stay runnable as ``python -m`` entry points in a bare checkout.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time
from typing import Callable, Sequence

__all__ = ["ROW_SWEEP", "check_leaks", "open_sockets", "run_matrix",
           "shm_entries", "shm_prefix", "wait_for_children"]

# The program the sim and dist matrices and the crash-restart drill all
# run: row i's readers race row i-1's writers, so every run at width > 1
# carries the full traffic mix — allocate and spawn broadcasts, remote
# reads deferred owner-side, page-grain replies, cross-identity writes —
# and a resumed run genuinely consumes its checkpointed rows.
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


# -- leak accounting ------------------------------------------------------


def open_sockets() -> int:
    """Open socket fds of the current process (via /proc/self/fd)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if "socket:" in os.readlink(f"/proc/self/fd/{fd}"):
                count += 1
        except OSError:
            continue
    return count


def shm_prefix(pid: int | None = None) -> str:
    """The name prefix of every shm segment process ``pid`` (default:
    this one) creates: a ``parallel`` run's tag starts with it."""
    return f"pods{os.getpid() if pid is None else pid}_"


def shm_entries(pid: int | None = None) -> set[str]:
    """The segments of process ``pid`` (default: this one) currently
    present in /dev/shm; another process's segments are not counted, so
    concurrent runs cannot fail each other's audit."""
    return set(glob.glob(f"/dev/shm/{shm_prefix(pid)}*"))


def wait_for_children(deadline_s: float = 5.0) -> list:
    """Wait for forked children to be reaped; returns the stragglers."""
    deadline = time.monotonic() + deadline_s
    while multiprocessing.active_children() and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def check_leaks(problems: list[str], sockets0: int,
                shm0: set[str]) -> None:
    """The full post-scenario audit: no surviving child processes, the
    open-socket count and this process's shm segment set back to their
    pre-scenario state."""
    leftover = wait_for_children()
    if leftover:
        problems.append(f"leaked node processes: "
                        f"{[p.pid for p in leftover]}")
    sockets = open_sockets()
    if sockets > sockets0:
        problems.append(f"leaked sockets: {sockets0} -> {sockets}")
    shm = shm_entries() - shm0
    if shm:
        problems.append(f"leaked shm segments: {sorted(shm)}")


# -- the scenario-matrix loop ---------------------------------------------


def run_matrix(cases: Sequence[tuple[str, Callable[[], list[str]]]],
               label: str, tail: str, name_width: int = 20) -> int:
    """Run ``(name, thunk)`` cases, print the per-case table and the
    summary line; returns the process exit code (1 = any failure).

    Each thunk returns a list of problems (empty = pass).
    """
    failed = 0
    for name, thunk in cases:
        t0 = time.monotonic()
        problems = thunk()
        dt = time.monotonic() - t0
        status = "ok" if not problems else "FAIL"
        print(f"  {name:<{name_width}s} {status:>4s}  ({dt:.1f}s)")
        for p in problems:
            print(f"    !! {p}")
        failed += bool(problems)
    total = len(cases)
    print(f"{label}: {total - failed}/{total} scenarios passed on "
          f"{tail}")
    return 1 if failed else 0
