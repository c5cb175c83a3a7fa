"""Multi-node distributed execution over a fault-tolerant TCP layer.

The paper's target deployment shape: one process per node, connected by
a real network, with remote I-structure reads as actual split-phase
message exchanges and page-grain remote caching (Section 4).  The
package splits along the same seams as the other backends:

* :mod:`repro.dist.transport` — length-prefixed JSON framing plus the
  reliable-delivery layer (sequence numbers, ack/retransmit, receiver
  dedup) reusing the simulator's :mod:`repro.sim.reliable` bookkeeping;
* :mod:`repro.dist.faults` — the distributed chaos dialect (frame
  drop/delay, link partitions, node kills);
* :mod:`repro.dist.node` — the node process: asyncio message runtime,
  element stores with presence bits, SPMD interpreter executors;
* :mod:`repro.dist.coordinator` — spawn, supervision (heartbeats,
  node-loss detection), takeover, result gathering.

The self-checking chaos matrix is ``python -m repro.chaos dist``.
"""

from repro.dist.coordinator import run_distributed
from repro.dist.faults import DistFault, DistFaultPlan

__all__ = ["DistFault", "DistFaultPlan", "run_distributed"]
