"""Session fixtures for the conformance suite.

Compilation and execution are both memoized per session: each app is
compiled once, and each (app, backend, width, metrics?) cell is run at
most once no matter how many test functions assert against it.  The
parallel backend forks real worker processes, so without the cache the
matrix would pay process startup per *assertion* instead of per cell.
"""

import pytest

from repro.backend import get_backend
from tests.conformance.matrix import APPS


@pytest.fixture(scope="session")
def apps():
    """Every app in :mod:`repro.apps`, compiled once: name -> (program, args)."""
    return {name: (thunk(), args) for name, (thunk, args) in APPS.items()}


@pytest.fixture(scope="session")
def runner(apps):
    """Memoized executor: ``runner(app, backend, pes, metrics=False)``.

    Returns the :class:`repro.backend.BackendResult` for that matrix
    cell, running it on first request only.  ``metrics=True`` turns on
    the simulator's observability plane (the parallel and dist
    backends always record metrics); the sequential oracle ignores
    width, so callers
    should pass ``pes=1`` for it to share one cache cell.
    """
    cache = {}

    def run(name, backend, pes, metrics=False):
        key = (name, backend, pes, metrics)
        if key not in cache:
            program, args = apps[name]
            kwargs = {}
            if backend == "seq":
                pass  # the oracle has no parallelism axis
            elif backend == "sim" and metrics:
                from repro.common.config import (MachineConfig, ObsConfig,
                                                 SimConfig)
                kwargs["config"] = SimConfig(
                    machine=MachineConfig(num_pes=pes),
                    obs=ObsConfig(metrics=True, timelines=True, waits=True))
            else:
                kwargs["parallelism"] = pes
            cache[key] = get_backend(backend).run(program, args, **kwargs)
        return cache[key]

    return run
