"""The shared SPMD core, driven with a plain in-process store.

``repro.runtime.spmd.SpmdInterpreter`` is what both the ``parallel`` and
``dist`` backends execute; before it existed its Range-Filter logic was
only reachable through a full process (or cluster) launch.  Here the
store seam is filled with the simplest thing that works — one
``SeqArray`` per array shared by every identity, no processes, no sockets
— and the identities run one after another.  What must hold at every
width, ascending and descending, one identity per interpreter or several
(the takeover shape):

* the executed subranges tile the iteration space exactly once;
* ``rf_counts`` is exactly what ``ArrayHeader.filtered_range`` predicts;
* the assembled array equals the sequential interpreter's;
* replicated code (outside any distributed loop) writes each element
  once, at its owner — the location rule;
* the core keeps no modeled time, and the code it generates without the
  cost model computes what ``seq``'s charged code does;
* the ``iter`` fault trigger is written into the loops exactly when the
  plan holds a clause, and ``iter``/``write`` clauses act at their counts;
* a failing worker's traceback shows the generated line it failed on;
* each shared read counts once, whether the inline probe or the
  handle's ``read`` answers it;
* over real shared-memory handles, an element read costs the host no
  more Python frames than its budget.
"""

import os
import subprocess
import sys
import threading
import time
import traceback
from types import SimpleNamespace

import pytest

import repro
from repro import compile_source
from repro.baseline.sequential import SeqArray
from repro.common.errors import ExecutionError, MissingWriteError
from repro.common.faultplan import EventTrigger
from repro.parallel.shm_arrays import ShmArray
from repro.runtime.arrays import ArrayHeader, SharedHandle
from repro.runtime.spmd import (SpmdInterpreter, WorkerTelemetry,
                                telemetry_registry, telemetry_table)

PAGE = 4  # small pages, so widths 1-5 all get non-trivial subranges

ASCENDING = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = 2 * i; }
    return A;
}"""

DESCENDING = """
function main(n) {
    A = array(n);
    for i = n downto 1 { A[i] = 3 * i; }
    return A;
}"""

# The outer loop carries ``s`` and stays serial; the inner one gets a
# dim-1 Range Filter with the row index fixed, executed once per row.
INNER = """
function main(n, m) {
    A = matrix(n, m);
    s = 0;
    for i = 1 to n {
        next s = s + i;
        for j = m downto 1 { A[i, j] = 10 * i + j; }
    }
    return A;
}"""

# Replicated writes: nothing here is inside a distributed loop.  The
# loop carries ``s`` and so stays serial; every identity computes every
# value, and only the owner of an element may write it.
TOP_LEVEL = """
function main(n) {
    A = array(n);
    A[1] = 7;
    A[n] = 9;
    for i = 2 to n - 1 { A[i] = 2 * i; }
    return A;
}"""

SERIAL_FILL = """
function main(n) {
    A = array(n);
    s = 0;
    for i = 1 to n { next s = s + i; A[i] = s + i; }
    return A;
}"""


class PlainArray(SharedHandle):
    """One interpreter's handle to a shared array that lives in this
    process: the run's one ``SeqArray`` of the ordinal (whose cells are
    the probe's list) and this handle's shared counters, its ``read``
    counting as a shared store's does.  With ``wait``, for identities
    that run at once in threads, a read of an element not yet written
    waits for it, as a worker's would."""

    def __init__(self, seq: int, dims, width: int, store: dict,
                 wait: bool = False) -> None:
        super().__init__(seq, tuple(dims), PAGE, width)
        self.cells = cells = store.setdefault(seq, SeqArray(seq, dims))
        self.probe(cells.cells)
        self.name = f"a{seq}"
        read = _waiting(cells.read) if wait else cells.read

        def counted(indices):
            value = read(indices)
            self.reads += 1
            return value
        self.read = counted

    def write(self, indices, value):
        self.writes += 1
        return self.cells.write(indices, value)  # single assignment

    def to_value(self):
        return self.cells.to_value()


def _waiting(read):
    """``read``, retried while the element it asks for is absent."""
    def read_when_written(indices):
        deadline = time.monotonic() + 30.0
        while True:
            try:
                return read(indices)
            except MissingWriteError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(1e-4)
    return read_when_written


class PlainSpmd(SpmdInterpreter):
    """The core over a dict of ``SeqArray`` stores shared by the run."""

    def __init__(self, program, identities, width, store,
                 injector=None, wait: bool = False) -> None:
        super().__init__(program, identities,
                         injector or EventTrigger((), ()))
        self.width = width
        self.store = store
        self.wait = wait
        self.executed: list[tuple[str, int]] = []

    def alloc_shared(self, seq, dims):
        return PlainArray(seq, dims, self.width, self.store, self.wait)

    def iteration_hook(self, block):
        # A distributed loop's iterations are noted at the top of each,
        # where the ``iter`` trigger is called.
        fire = super().iteration_hook(block)
        if block is None or not block.distributed:
            return fire
        executed, name = self.executed, block.name

        def noted(index):
            executed.append((name, index))
            if fire is not None:
                fire(index)
        return noted


def _groups(width: int, takeover: bool) -> list[tuple[int, ...]]:
    """Identity groups: one per interpreter, or the last two merged."""
    if not takeover or width < 2:
        return [(p,) for p in range(width)]
    return [(p,) for p in range(width - 2)] + [(width - 2, width - 1)]


def _run(source: str, args: tuple, width: int, takeover: bool):
    program = compile_source(source)
    store: dict[int, SeqArray] = {}
    interps = []
    for identities in _groups(width, takeover):
        interp = PlainSpmd(program, identities, width, store)
        interp.run(args, materialize=False)
        interps.append(interp)
    arrays = {arr.name: arr.to_value() for arr in interps[0].shared_arrays}
    return program, arrays, interps


WIDTHS = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("takeover", [False, True],
                         ids=["single-identity", "takeover"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("source,descending",
                         [(ASCENDING, False), (DESCENDING, True)],
                         ids=["ascending", "descending"])
class TestOuterLoopTiling:
    N = 23  # 5 full pages of 4 and a short one; no width above 1 divides it

    def test_subranges_tile_the_iteration_space_once(self, source,
                                                     descending, width,
                                                     takeover):
        program, arrays, interps = _run(source, (self.N,), width, takeover)
        executed = [i for interp in interps for _, i in interp.executed]
        assert sorted(executed) == list(range(1, self.N + 1))
        # Within one interpreter, adopted identities run in global
        # iteration order (the takeover self-deadlock rule).
        for interp in interps:
            own = [i for _, i in interp.executed]
            assert own == sorted(own, reverse=descending)
        oracle = program.run((self.N,), backend="seq").value
        assert arrays["a1"] == oracle

    def test_rf_counts_match_filtered_range(self, source, descending,
                                            width, takeover):
        _, _, interps = _run(source, (self.N,), width, takeover)
        header = ArrayHeader(1, (self.N,), PAGE, width)
        init, limit = (self.N, 1) if descending else (1, self.N)
        step = -1 if descending else 1
        for interp in interps:
            expected = {}
            for ident in interp.identities:
                first, last = header.filtered_range(
                    ident, init, limit, descending=descending)
                items = max(0, (last - first) * step + 1)
                expected[("main.for_i", first, last, items)] = 1
            assert interp.rf_counts == expected
        assert sum(items for interp in interps
                   for (_, _, _, items) in interp.rf_counts) == self.N


@pytest.mark.parametrize("takeover", [False, True],
                         ids=["single-identity", "takeover"])
@pytest.mark.parametrize("width", WIDTHS)
def test_inner_dimension_filter_tiles_every_row(width, takeover):
    n, m = 3, 7  # 21 elements: 6 pages, the last one short
    program, arrays, interps = _run(INNER, (n, m), width, takeover)
    assert arrays["a1"] == program.run((n, m), backend="seq").value
    header = ArrayHeader(1, (n, m), PAGE, width)
    total = 0
    for interp in interps:
        expected: dict = {}
        for i in range(1, n + 1):
            for ident in interp.identities:
                first, last = header.filtered_range(
                    ident, m, 1, descending=True, fixed=(i,), dim=1)
                key = ("main.for_i.for_j", first, last,
                       max(0, first - last + 1))
                expected[key] = expected.get(key, 0) + 1
        assert interp.rf_counts == expected
        total += sum(items * count for (_, _, _, items), count
                     in interp.rf_counts.items())
    assert total == n * m


@pytest.mark.parametrize("takeover", [False, True],
                         ids=["single-identity", "takeover"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("source,serial",
                         [(TOP_LEVEL, False), (SERIAL_FILL, True)],
                         ids=["top-level", "serial-loop"])
def test_replicated_writes_land_once_at_the_owner(source, serial, width,
                                                  takeover):
    n = 23
    program, arrays, interps = _run(source, (n,), width, takeover)
    if serial:
        assert program.partition_report.distributed == []
    # Complete (equals the oracle) and never doubled (PlainArray raises
    # on a second write): every element was written exactly once.
    assert arrays["a1"] == program.run((n,), backend="seq").value
    assert sum(arr.writes for interp in interps
               for arr in interp.shared_arrays) == n
    if serial:
        # ... and each by the interpreter holding its owning identity.
        header = ArrayHeader(1, (n,), PAGE, width)
        for interp in interps:
            owned = sum(header.owner_of_offset(off) in interp.identities
                        for off in range(n))
            assert interp.shared_arrays[0].writes == owned


def test_arrays_allocated_inside_a_distributed_iteration_are_private():
    source = """
    function f(i) { T = array(2); T[1] = i; return T[1] + 1; }
    function main(n) {
        A = array(n);
        for i = 1 to n { A[i] = f(i); }
        return A;
    }"""
    program, arrays, interps = _run(source, (9,), 2, takeover=False)
    assert list(arrays) == ["a1"]  # only A went through alloc_shared
    assert all(interp.alloc_seq == 1 for interp in interps)
    assert arrays["a1"] == program.run((9,), backend="seq").value


def test_telemetry_sums_the_store_counters_and_renders():
    _, _, interps = _run(ASCENDING, (10,), 2, takeover=False)
    stats = [WorkerTelemetry.from_dict(w, interp.telemetry(0.5))
             for w, interp in enumerate(interps)]
    assert sum(t.shared_writes for t in stats) == 10
    registry = telemetry_registry(stats)
    assert registry.total("rf.items") == 10
    table = telemetry_table(stats, who="node")
    assert table.splitlines()[0].startswith("node    wall(s)")
    assert "main.for_i[1..8]" in table
    assert telemetry_table(stats).startswith("worker  wall(s)")


FOLD_WITHOUT_CKPT = """
import sys
from repro.common.retry import RecoveryLog
from repro.runtime.spmd import fold_results
r = fold_results(1.0, 0.1, {0: {}, 1: {}}, 2, RecoveryLog(),
                 ckpt=None, restore=None)
assert r.ckpt is None and len(r.worker_stats) == 2
print([m for m in sys.modules if m.startswith("repro.ckpt")])
"""


def test_folding_a_run_without_a_checkpoint_imports_no_ckpt():
    # A ``dist`` coordinator is forked fresh for every run and folds its
    # nodes' reports there: the checkpoint package is for a run that has
    # a checkpoint or a restore.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", FOLD_WITHOUT_CKPT], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- the clock-less code, against ``seq`` --------------------------------
#
# A worker's code is generated without the cost model, so each construct
# has a second form that only ``parallel`` and ``dist`` execute.  Between
# them these programs run every such form.  The identities run one after
# another here, so an element is only ever read by the iteration that
# wrote it (or from an array private to that iteration).

CLOSURES = """
function g3(x) { return abs(x) - 1; }
function g2(x) { return g3(x) * 2 + g3(0 - x); }
function g1(x) { return g2(x) + 1; }
function row(i, n) {
    V = array(n);
    M = matrix(n + 1, n);
    T = array(2, n, 2);
    one = 1;
    for j = n downto 1 {
        V[j] = sqrt(1.0 * j) + min(i, j);
        M[one, j] = max(i, j) * 1.0;
        for r = 1 to n { M[r + 1, j] = M[r, j] + V[j]; }
        T[one, j, one] = -V[j];
        T[2, j, 2] = if not (j < i) then g1(j) else 0 - j;
    }
    s = 0.0;
    k = 1;
    while k <= n {
        next s = s + M[n + 1, k] + T[one, k, one] * T[2, k, 2];
        next k = k + 1;
    }
    if s < 0 { return 0 - s; }
    return s;
}
function main(n) {
    B = matrix(n, n);
    C = matrix(n, n);
    h = 0.0;
    for x = 1.5 to n { next h = h + x; }
    for i = 1 to n {
        for j = 1 to n {
            B[i, j] = row(i, n) + h * j;
            C[i, j] = B[i, j] - B[i, 1 + j - 1];
        }
    }
    return B;
}"""

TYPE_ERROR = """
function bad(i) { T = array(2); return T + i; }
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = bad(i); }
    return A;
}"""


@pytest.mark.parametrize("takeover", [False, True],
                         ids=["single-identity", "takeover"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_clockless_closures_agree_with_seq(width, takeover):
    n = 7
    program, arrays, interps = _run(CLOSURES, (n,), width, takeover)
    assert arrays["a1"] == program.run((n,), backend="seq").value
    assert arrays["a2"].flat == [0.0] * (n * n)  # C: all read back in place


def test_the_core_keeps_no_modeled_time():
    interp = PlainSpmd(compile_source(CLOSURES), (0,), 1, {})
    assert interp.clock is None
    assert interp.run((3,), materialize=False).time_us is None


def test_type_error_text_is_the_sequential_one():
    program = compile_source(TYPE_ERROR)
    with pytest.raises(ExecutionError) as seq:
        program.run((3,), backend="seq")
    with pytest.raises(ExecutionError) as spmd:
        PlainSpmd(program, (0,), 1, {}).run((3,))
    assert str(spmd.value) == str(seq.value)
    assert ": add: unsupported operand" in str(seq.value)


DIV_ZERO = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = 10 / (i - n); }
    return A[1];
}"""


def _failing_line(detail: str) -> str:
    """The source line a traceback shows under its last generated frame."""
    lines = detail.splitlines()
    at = max(k for k, line in enumerate(lines) if "<idlite:main>" in line)
    return lines[at + 1].strip()


def test_a_traceback_shows_the_generated_line():
    with pytest.raises(ExecutionError) as info:
        PlainSpmd(compile_source(DIV_ZERO), (0,), 1, {}).run((4,))
    detail = "".join(traceback.format_exception(info.value))
    assert 'File "<idlite:main>", line' in detail
    assert "_bdiv(10, " in _failing_line(detail)


def test_a_failing_workers_report_shows_the_generated_line():
    from repro.common.config import ParallelConfig
    from repro.common.errors import ParallelExecutionError
    from repro.common.retry import RetryPolicy

    config = ParallelConfig(workers=2, retry=RetryPolicy(enabled=False),
                            timeout_s=20.0)
    with pytest.raises(ParallelExecutionError) as info:
        compile_source(DIV_ZERO).run((8,), backend="parallel", config=config)
    failed = [f for f in info.value.failures if f.kind == "error"]
    assert failed and failed[0].code == "execution"
    assert "division by zero" in failed[0].detail
    assert "_bdiv(10, " in _failing_line(failed[0].detail)


# -- the ``iter`` trigger joins a loop only under a plan ------------------


class Recorder(EventTrigger):
    """Counts ``fire`` calls per event and notes, for each clause that
    reaches its count, how many shared writes the interpreter under it
    had performed."""

    def __init__(self, faults=()) -> None:
        super().__init__(faults, ("iter", "write"))
        self.fired = {"iter": 0, "write": 0}
        self.hits: list[tuple[str, int]] = []
        self.interp = None

    def fire(self, event):
        self.fired[event] += 1
        super().fire(event)

    def act(self, f, count):
        if count == f.after:
            self.hits.append((f.on, sum(arr.writes for arr
                                        in self.interp.shared_arrays)))


def _clause(on: str, after: int, gen: int = 0):
    return SimpleNamespace(on=on, after=after, gen=gen)


def _under(trigger: Recorder) -> PlainSpmd:
    interp = PlainSpmd(compile_source(ASCENDING), (0,), 1, {}, trigger)
    trigger.interp = interp
    return interp


def test_an_empty_plan_never_fires_per_iteration():
    trigger = Recorder()
    interp = _under(trigger)
    interp.run((23,), materialize=False)
    # 23 iterations ran; only the write hook (unconditional) asked.
    assert trigger.fired == {"iter": 0, "write": 23}


def test_planned_triggers_act_at_their_counts_in_every_generation():
    # ASCENDING writes once per iteration: the sixth iteration starts
    # after five writes, the fourth write follows three.
    trigger = Recorder([_clause("iter", 5), _clause("write", 3)])
    _under(trigger).run((23,), materialize=False)
    assert trigger.hits == [("write", 3), ("iter", 5)]
    assert trigger.fired == {"iter": 23, "write": 23}
    trigger.arm(2)  # a replay: counts restart, under a new executor
    _under(trigger).run((23,), materialize=False)
    assert trigger.hits == [("write", 3), ("iter", 5)] * 2


def test_a_later_generations_clause_is_bound_from_the_start():
    # What a takeover does: the injector is re-armed while the executor
    # built under generation 1 keeps running.
    trigger = Recorder([_clause("iter", 2, gen=2)])
    interp = _under(trigger)
    interp.run((23,), materialize=False)
    assert trigger.hits == [] and trigger.fired["iter"] == 23
    trigger.arm(2)
    interp.run((23,), materialize=False)  # allocates a second array
    assert trigger.hits == [("iter", 23 + 2)]


# -- element reads over real shared-memory handles ---------------------------


class ShmSpmd(SpmdInterpreter):
    """The core over real shared-memory handles, in this process:
    identity ``ident`` of ``width``, generation 0.  Every identity's
    handle to an array opens the one segment of its allocation ordinal
    (whichever comes first creates it); ``settings`` are the handles'
    read settings."""

    def __init__(self, program, ident: int = 0, width: int = 1,
                 tag: str = "budget", **settings) -> None:
        super().__init__(program, (ident,), EventTrigger((), ()))
        self.width = width
        self.tag = tag
        self.settings = settings

    def alloc_shared(self, seq, dims):
        return ShmArray(f"pods{os.getpid()}_{self.tag}_{seq}", dims,
                        create=True, ordinal=seq, exist_ok=True,
                        epoch_slots=self.width,
                        slot=self.identities[0], **self.settings)

    def close(self) -> None:
        """Close this interpreter's handles and unlink their segments."""
        for arr in self.shared_arrays:
            arr.close()
            arr.unlink()


def in_threads(interps, args: tuple) -> list:
    """Run each interpreter in a thread of its own, all at once: what
    they return, or the first error one raised."""
    values, errors = [None] * len(interps), []

    def run(k):
        try:
            values[k] = interps[k].run(args, materialize=False).value
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(interps))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return values


def count_read_calls(interp) -> list[int]:
    """A one-element list the ``read`` calls of every shared handle
    ``interp`` allocates from now on are counted into."""
    calls = [0]
    alloc = interp.alloc_shared

    def alloc_counted(seq, dims):
        arr = alloc(seq, dims)
        read = arr.read

        def counted(indices):
            calls[0] += 1
            return read(indices)
        arr.read = counted
        return arr
    interp.alloc_shared = alloc_counted
    return calls


# Checksummed matmul, n = 12, each identity in its own interpreter over
# shared-memory handles (32-element pages): the shared reads of each, as
# measured when every read was a call of the handle's ``read``.
SHM_READS_PER_IDENTITY = {1: [3600], 2: [2448, 1296],
                          3: [1872, 1584, 432]}


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("store", ["shm", "plain"])
def test_shared_reads_count_each_read_once(store, width):
    from repro.apps import compile_matmul

    n = 12
    program = compile_matmul(checksum=True)
    if store == "shm":
        interps = [ShmSpmd(program, p, width, tag="count")
                   for p in range(width)]
    else:
        cells: dict = {}
        interps = [PlainSpmd(program, (p,), width, cells, wait=True)
                   for p in range(width)]
    calls = [count_read_calls(interp) for interp in interps]
    try:
        values = in_threads(interps, (n,))
    finally:
        if store == "shm":
            for interp in interps:
                interp.close()
    assert values == [program.run((n,), backend="seq").value] * width
    reads = [interp.telemetry(0.0)["shared_reads"] for interp in interps]
    # Each identity reads its rows of A and all of B (2n reads for each
    # element of its rows of C), then every element of C.
    header = interps[0].shared_arrays[2].header
    assert reads == [2 * n * n * (hi - lo + 1) + n * n for lo, hi
                     in map(header.responsible_rows, range(width))]
    assert sum(reads) == 2 * n ** 3 + width * n * n
    if store == "shm":
        assert reads == SHM_READS_PER_IDENTITY[width]
    # Both paths counted: most reads hit the probe inline; the rest
    # called ``read`` — on shared memory at least each element's first,
    # while plain cells are themselves the probe's list.
    assert all(c[0] < r for c, r in zip(calls, reads)), (calls, reads)
    if store == "shm":
        assert all(c[0] >= n * n for c in calls), calls


# Every element of an ``n`` x ``n`` matrix handed in, read once.
READ_ALL = """
function main(A, n) {
    s = 0.0;
    for i = 1 to n {
        row = 0.0;
        for j = 1 to n { next row = row + A[i, j]; }
        next s = s + row;
    }
    return s;
}"""


class TestSpmdHostWorkBudget:
    """A standing budget for Python work per shared element read, with
    the ``sys.setprofile`` recipe of the simulator's
    ``TestHostWorkBudget``: Python frames entered over the whole run,
    divided by the element reads the handles counted.  What a worker
    pays per element is interpreter frames (docs/parallel.md, "Where a
    worker's time goes"), so a change to the generated code or to a
    store's ``read`` is held to this count.  Builtin calls are not frames and
    are not counted."""

    # Rank 2, matmul n = 24: 7.39 with a loop seam, an index lambda and a
    # separate offset frame; 4.78 with all three gone but the closures;
    # 1.32 with each function generated as one Python function (the read
    # is the only frame of a ``k`` step); 0.38 with the present element
    # read inline (a frame only for the first read of each element).
    RANK2_CALLS_PER_READ = 0.40
    # Rank 1, Livermore hydro n = 64 (256 reads, so allocation and
    # writing the source out weigh in): 15.37 over the closures, 8.05
    # generated, 8.01 read inline (nearly every element is read once).
    RANK1_CALLS_PER_READ = 8.05
    # Rank 2, every element present and in the handle's mirror, n = 48:
    # the run's own frames only, spread over its reads.
    MIRRORED_CALLS_PER_READ = 0.03

    def test_rank2_matmul(self):
        from repro.apps import compile_matmul

        per_read = self.calls_per_read(compile_matmul(checksum=True), (24,))
        assert per_read <= self.RANK2_CALLS_PER_READ, per_read

    def test_rank1_hydro(self):
        from repro.apps.livermore import compile_kernel

        per_read = self.calls_per_read(compile_kernel("hydro"), (64,))
        assert per_read <= self.RANK1_CALLS_PER_READ, per_read

    def test_mirrored_reads_enter_no_frame(self):
        n = 48
        arr = ShmArray(f"pods{os.getpid()}_mirrored", (n, n), create=True)
        try:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    arr.write((i, j), 0.5 * i + j)
                    arr.read((i, j))  # into the mirror
            interp = ShmSpmd(compile_source(READ_ALL))
            expected = interp.run((arr, n)).value  # writes the code out
            before = arr.reads
            calls, value = self.frames(lambda: interp.run((arr, n)).value)
            per_read = calls / (arr.reads - before)
        finally:
            arr.close()
            arr.unlink()
        assert value == expected and arr.reads - before == n * n
        assert per_read <= self.MIRRORED_CALLS_PER_READ, per_read

    @staticmethod
    def frames(run) -> tuple[int, object]:
        """The Python frames entered while ``run()`` runs, and what it
        returns."""
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            value = run()
        finally:
            sys.setprofile(previous)
        return calls, value

    def calls_per_read(self, program, args) -> float:
        interp = ShmSpmd(program)
        try:
            calls, _ = self.frames(
                lambda: interp.run(args, materialize=False))
        finally:
            interp.close()
        reads = sum(arr.reads for arr in interp.shared_arrays)
        assert reads > 0
        return calls / reads
