"""Real-parallel backend: supervised multiprocessing workers over
shared I-structures, with fault injection and per-worker telemetry."""

from repro.parallel.executor import run_parallel
from repro.parallel.faults import Fault, FaultPlan
from repro.parallel.manifest import ShmManifest
from repro.parallel.shm_arrays import ShmArray
from repro.runtime.spmd import WorkerTelemetry

__all__ = ["Fault", "FaultPlan", "ShmArray", "ShmManifest",
           "WorkerTelemetry", "run_parallel"]
