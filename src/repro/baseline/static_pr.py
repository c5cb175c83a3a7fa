"""Pingali & Rogers-style static-compilation baseline (paper Section 6).

P&R compile Id programs into C for the iPSC/2: "once the programs are
compiled into native code, processes are statically scheduled onto
processor nodes and execution proceeds in a completely control-driven
manner".  The two mechanisms PODS has and this approach lacks are dynamic
(data-driven) SP activation and split-phase reads with context switching.

We model that execution style as a *critical-path SPMD simulation* built
on the sequential interpreter:

* one virtual clock per PE; scalar/control code is replicated on every
  PE (SPMD), distributed-loop iterations are attributed to the PE that
  owns them under the very same first-element-ownership partitioning the
  PODS Partitioner computes;
* every array element records the time its value becomes available on
  its owner; a reader must wait for ``avail`` plus a blocking transfer
  when the element is remote (page-grain caching amortizes repeats, as
  both systems cache pages);
* there is no overlap: waits extend the reader's clock directly, which
  is exactly the cost of blocking (non-split-phase) communication.

Pipelined sweeps emerge naturally: PE k's first rows become available
early, so PE k+1 starts its dependent rows after a stagger, not after
the whole predecessor chunk — matching the doacross behaviour a good
static compiler achieves, while still paying full message latency per
miss.  Wall-clock time is the max over the PE clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ExecutionError
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.arrays import ArrayHeader
from repro.baseline.sequential import (
    Clock,
    Loop,
    PartitionedInterpreter,
    SeqArray,
)
from repro.sim import timing as T

def _remote_read_rt(page_size: int, element_bytes: int) -> float:
    return (T.message_latency(32)
            + T.message_latency(page_size * element_bytes + 32)
            + T.am_send_page(page_size) + T.am_receive_page(page_size))


REMOTE_WRITE_SEND = T.RU_MSG_COST + T.MEM_WRITE


class PEClocks(Clock):
    """One clock per PE plus a context: 'all' (replicated SPMD code) or a
    specific PE (a distributed-loop iteration)."""

    def __init__(self, num_pes: int) -> None:
        super().__init__()
        self.times = [0.0] * num_pes
        self.ctx: int | str = "all"

    def charge(self, *costs: float) -> None:
        for cost in costs:
            if self.ctx == "all":
                for p in range(len(self.times)):
                    self.times[p] += cost
            else:
                self.times[self.ctx] += cost

    def wait_until(self, t: float) -> None:
        if self.ctx == "all":
            for p in range(len(self.times)):
                if self.times[p] < t:
                    self.times[p] = t
        else:
            if self.times[self.ctx] < t:
                self.times[self.ctx] = t

    def now(self) -> float:
        if self.ctx == "all":
            return max(self.times)
        return self.times[self.ctx]

    def finish_time(self) -> float:
        return max(self.times)


@dataclass
class StaticResult:
    value: Any
    time_us: float
    pe_times: list[float]
    remote_misses: int = 0

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


class StaticInterpreter(PartitionedInterpreter):
    """SPMD critical-path executor (see module docstring)."""

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 config: SimConfig) -> None:
        self.num_pes = config.machine.num_pes
        self.page_size = config.machine.page_size
        self.element_bytes = config.machine.element_bytes
        self.cache_enabled = config.machine.cache_enabled
        clocks = PEClocks(self.num_pes)
        super().__init__(program, graph, clocks)
        self.clocks = clocks
        self.graph = graph
        # (ordinal, offset) -> time available at its owner.
        self.avail: dict[tuple[int, int], float] = {}
        # (pe, ordinal, page) -> cached since time t.
        self.page_cache: dict[tuple[int, int, int], float] = {}
        self.headers: dict[int, ArrayHeader] = {}
        self.remote_misses = 0
        self.remote_rt = _remote_read_rt(self.page_size, self.element_bytes)

    # -- ownership --------------------------------------------------------

    def header_for(self, arr: SeqArray) -> ArrayHeader:
        header = self.headers.get(arr.ordinal)
        if header is None:
            header = ArrayHeader(arr.ordinal, arr.dims, self.page_size,
                                 self.num_pes)
            self.headers[arr.ordinal] = header
        return header

    # -- distributed loops --------------------------------------------------

    def run_for(self, loop: Loop, frame: list) -> None:
        init, limit = frame[0], frame[1]
        step = -1 if loop.descending else 1
        found = (self.range_filter_of(loop, frame)
                 if self.clocks.ctx == "all" else None)
        if found is None:
            self.run_for_range(loop, frame, init, limit, step)
            return
        block, arr, fixed = found
        rf = block.range_filter
        if not isinstance(arr, SeqArray):
            raise ExecutionError("range-filter array did not resolve")
        header = self.header_for(arr)

        entry = max(self.clocks.times)  # SPMD: everyone enters together
        for p in range(self.num_pes):
            self.clocks.times[p] = max(self.clocks.times[p], entry)
        try:
            for p in range(self.num_pes):
                first, last = header.filtered_range(
                    p, init, limit, descending=loop.descending,
                    fixed=fixed, dim=rf.dim)
                self.clocks.ctx = p
                self.run_for_range(loop, frame, first, last, step)
        finally:
            self.clocks.ctx = "all"

    # -- array hooks -------------------------------------------------------
    # The flat access charge is already on the clock (the generated code
    # writes it in); what these add is where the element lives.

    def on_array_read(self, arr: SeqArray, indices: tuple) -> Any:
        header = self.header_for(arr)
        offset = arr.offset(indices)
        avail = self.avail.get((arr.ordinal, offset), 0.0)
        owner = header.owner_of_offset(offset)
        page = header.page_of(offset)
        times = self.clocks.times
        ctx = self.clocks.ctx
        # Replicated SPMD code reads on every PE (round trips happen in
        # parallel across PEs, so each clock pays its own); a
        # distributed-loop iteration on its one PE.  A PE waits for the
        # element; then the owner has it, a cached page has it, and a
        # miss pays a blocking round trip with no overlap.
        for p in range(self.num_pes) if ctx == "all" else (ctx,):
            if times[p] < avail:
                times[p] = avail
            if p == owner:
                continue
            key = (p, arr.ordinal, page)
            if self.cache_enabled and self.page_cache.get(key, -1.0) >= avail:
                continue
            times[p] += self.remote_rt
            self.remote_misses += 1
            if self.cache_enabled:
                self.page_cache[key] = times[p]
        return arr.read(indices)

    def on_array_write(self, arr: SeqArray, indices: tuple, value) -> None:
        header = self.header_for(arr)
        offset = arr.write(indices, value)
        ctx = self.clocks.ctx
        when = self.clocks.now()
        if ctx != "all":
            owner = header.owner_of_offset(offset)
            if owner != ctx:
                # Forwarded write: sender pays the send overhead; the
                # value lands after the message latency.
                self.clocks.charge(REMOTE_WRITE_SEND)
                when = self.clocks.now() + T.message_latency(32)
        self.avail[(arr.ordinal, offset)] = when


def run_static(program, args: tuple = (), num_pes: int = 1,
               config: SimConfig | None = None) -> StaticResult:
    """Run the P&R-style baseline.  ``program`` is a repro.api.Program."""
    if config is None:
        config = SimConfig(machine=MachineConfig(num_pes=num_pes))
    interp = StaticInterpreter(program.ast, program.graph, config)
    seq = interp.run(args)
    return StaticResult(
        value=seq.value,
        time_us=interp.clocks.finish_time(),
        pe_times=list(interp.clocks.times),
        remote_misses=interp.remote_misses,
    )
