"""The conformance matrix: which programs run where, at what widths.

The suite's axes live here so every test module (and the CI sharding
via ``PODS_CONFORMANCE_PES``) agrees on one catalog:

* ``APPS`` — every application shipped in :mod:`repro.apps`, each with
  a small-but-representative argument tuple.  All entries return a
  scalar so cross-backend equality is a single ``approx`` check.
* ``PES`` — the PE/worker widths the matrix fans out over.  Overridable
  with ``PODS_CONFORMANCE_PES=2`` (comma-separated) so CI can shard the
  matrix by width instead of re-running every width in one job.

Every app runs on every backend: there is no skip table.
"""

import os

from repro.apps import (compile_kernel, compile_matmul, compile_nbody,
                        compile_simple, compile_stencil, kernel_names)


def pe_counts() -> tuple[int, ...]:
    """PE/worker widths for the matrix (env-overridable for CI shards)."""
    spec = os.environ.get("PODS_CONFORMANCE_PES", "2,4")
    counts = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    if not counts or any(c < 1 for c in counts):
        raise ValueError(
            f"PODS_CONFORMANCE_PES={spec!r}: need positive integers")
    return tuple(counts)


PES = pe_counts()

# name -> (compile thunk, argument tuple).  Arguments are sized so the
# slowest cell (a real multiprocessing run) stays well under a second.
APPS = {
    "simple": (lambda: compile_simple(), (8, 2)),
    "simple-conduction": (lambda: compile_simple(conduction_only=True),
                          (8, 2)),
    "stencil": (lambda: compile_stencil(), (10, 2)),
    "matmul": (lambda: compile_matmul(checksum=True), (6,)),
    "nbody": (lambda: compile_nbody(), (8, 1)),
}
for _kernel in kernel_names():
    APPS[f"lk-{_kernel}"] = (
        (lambda k=_kernel: compile_kernel(k)), (16,))

BACKENDS = ("sim", "seq", "static", "parallel")


def dist_node_counts() -> tuple[int, ...]:
    """Node counts for the distributed matrix (env-overridable)."""
    spec = os.environ.get("PODS_CONFORMANCE_NODES", "2,3")
    counts = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    if not counts or any(c < 2 for c in counts):
        raise ValueError(
            f"PODS_CONFORMANCE_NODES={spec!r}: need integers >= 2")
    return tuple(counts)


DIST_NODES = dist_node_counts()
