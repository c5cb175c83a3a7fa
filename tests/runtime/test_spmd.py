"""The shared SPMD core, driven with a plain in-process store.

``repro.runtime.spmd.SpmdInterpreter`` is what both the ``parallel`` and
``dist`` backends execute; before it existed its Range-Filter logic was
only reachable through a full process (or cluster) launch.  Here the
store seam is filled with the simplest thing that works — ``SeqArray``
elements in one dict shared by every identity, no processes, no sockets
— and the identities run one after another.  What must hold at every
width, ascending and descending, one identity per interpreter or several
(the takeover shape):

* the executed subranges tile the iteration space exactly once;
* ``rf_counts`` is exactly what ``ArrayHeader.filtered_range`` predicts;
* the assembled array equals the sequential interpreter's;
* replicated code (outside any distributed loop) writes each element
  once, at its owner — the location rule;
* the core keeps no modeled time, and the closures it compiles without
  the cost model compute what ``seq``'s charged ones do;
* the ``iter`` fault trigger is compiled into the loops exactly when the
  plan holds a clause, and ``iter``/``write`` clauses act at their counts.
"""

from types import SimpleNamespace

import pytest

from repro import compile_source
from repro.baseline.sequential import SeqArray
from repro.common.errors import ExecutionError
from repro.common.faultplan import EventTrigger
from repro.runtime.arrays import ArrayHeader
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


class PlainArray(SeqArray):
    """One interpreter's handle to a shared array that lives in this
    process: the run's shared cells + geometry + this handle's counter."""

    __slots__ = ("name", "header", "writes")

    def __init__(self, seq: int, dims, width: int, store: dict) -> None:
        super().__init__(dims)
        self.cells = store.setdefault(seq, self.cells)
        self.name = f"a{seq}"
        self.header = ArrayHeader(seq, tuple(dims), PAGE, width)
        self.writes = 0

    def write(self, indices, value):
        self.writes += 1
        return super().write(indices, value)  # enforces single assignment

    def stats(self) -> dict:
        return {"reads": 0, "writes": self.writes, "deferred_reads": 0,
                "spin_wait_s": 0.0, "max_spin_wait_s": 0.0,
                "replayed_present": 0, "stall_reports": 0,
                "pages_touched": []}


class PlainSpmd(SpmdInterpreter):
    """The core over a dict of cell lists shared by the run."""

    shared_cls = PlainArray

    def __init__(self, program, identities, width, store,
                 injector=None) -> None:
        super().__init__(program, identities,
                         injector or EventTrigger((), ()))
        self.width = width
        self.store = store
        self.executed: list[tuple[str, int]] = []

    def alloc_shared(self, seq, dims):
        return PlainArray(seq, dims, self.width, self.store)

    def run_iteration(self, loop, frame, i):
        if loop.block is not None and loop.block.distributed:
            self.executed.append((loop.block.name, i))
        super().run_iteration(loop, frame, i)


def _groups(width: int, takeover: bool) -> list[tuple[int, ...]]:
    """Identity groups: one per interpreter, or the last two merged."""
    if not takeover or width < 2:
        return [(p,) for p in range(width)]
    return [(p,) for p in range(width - 2)] + [(width - 2, width - 1)]


def _run(source: str, args: tuple, width: int, takeover: bool):
    program = compile_source(source)
    store: dict[int, list] = {}
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


# -- the clock-less closures, against ``seq`` ----------------------------
#
# A worker's closures are compiled without the cost model, so each one
# has a second body that only ``parallel`` and ``dist`` execute.  Between
# them these programs run every such body.  The identities run one after
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
