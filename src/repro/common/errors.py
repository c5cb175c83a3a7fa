"""Exception hierarchy shared by every PODS subsystem.

Each layer of the pipeline (language, graph, translation, partitioning,
runtime, simulation) raises its own subclass of :class:`PodsError` so callers
can catch at the granularity they care about.

Every class also declares, as its ``code`` attribute, where it falls in
the one substrate-independent failure vocabulary
(:data:`ERROR_TAXONOMY`): a missing write is a ``deadlock`` whether it
is the simulator's :class:`DeadlockError`, a worker's
:class:`DeferredReadTimeout` or the sequential interpreter's
:class:`MissingWriteError`.  The code is data — it crosses a process
boundary beside the failure's text (:class:`WorkerFailure`), never
recovered from it.
"""

from __future__ import annotations

ERROR_TAXONOMY = {
    "compile": "the program was rejected before execution",
    "single-assignment": "an I-structure element was written twice",
    "bounds": "an array access fell outside the declared bounds",
    "deadlock": "execution blocked forever on a missing write",
    "livelock": "execution kept firing without making progress",
    "pe-halt": "a halted PE stranded the rest of the machine",
    "worker-failure": "a real-parallel worker died and was not healed",
    "node-loss": "a distributed node was lost and could not be healed",
    "execution": "an instruction failed while executing",
    "runtime": "another runtime fault",
    "regression": "a stored run regressed against its baseline",
    "internal": "an error outside the PodsError hierarchy",
}


class PodsError(Exception):
    """Base class for every error raised by the repro package.

    ``code`` is the class's :data:`ERROR_TAXONOMY` verdict; a subclass
    that says nothing inherits its parent's.  The base's is ``compile``:
    what is not a fault of a running program was rejected before one ran
    (a language, graph, translation, partition, config, checkpoint or
    run-store error).
    """

    code = "compile"


def classify_error(exc: BaseException) -> str:
    """Map an exception to its :data:`ERROR_TAXONOMY` code."""
    return exc.code if isinstance(exc, PodsError) else "internal"


class SourceLocation:
    """A position in an IdLite source file (1-based line/column)."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and other.line == self.line
            and other.column == self.column
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column))


class LanguageError(PodsError):
    """An error detected in IdLite source code."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(LanguageError):
    """The lexer met a character sequence it cannot tokenize."""


class ParseError(LanguageError):
    """The parser met an unexpected token."""


class SemanticError(LanguageError):
    """Scope, arity, or single-assignment violation found at compile time."""


class GraphError(PodsError):
    """The dataflow graph is malformed (dangling arcs, bad ports, ...)."""


class RunRegressionError(PodsError):
    """A stored run record regressed against its baseline.

    Raised by the ``pods runs diff`` / ``pods runs regress`` gates so CI
    consumers get the shared one-line ``error[Type/code]`` rendering and
    nonzero exit of every other structured failure."""

    code = "regression"


class TranslationError(PodsError):
    """The PODS Translator could not order or lower a code block."""


class PartitionError(PodsError):
    """The PODS Partitioner was asked to distribute an unsupported shape."""


class RuntimeFault(PodsError):
    """Base class for faults raised while a PODS program executes."""

    code = "runtime"


class SingleAssignmentViolation(RuntimeFault):
    """An I-structure element was written twice (forbidden by Id semantics)."""

    code = "single-assignment"

    def __init__(self, array_id: int, offset: int) -> None:
        self.array_id = array_id
        self.offset = offset
        super().__init__(
            f"single-assignment violation: array {array_id} offset {offset} "
            "written twice"
        )


class BoundsViolation(RuntimeFault):
    """An array access fell outside the declared bounds."""

    code = "bounds"

    def __init__(self, array_id: int, indices: tuple[int, ...], dims: tuple[int, ...]) -> None:
        self.array_id = array_id
        self.indices = indices
        self.dims = dims
        super().__init__(
            f"index {indices} out of bounds for array {array_id} with dims {dims}"
        )


def _progress_report(blocked: list[str], channels: list[str],
                     last_progress_us: float | None) -> str:
    """Shared diagnostic tail for stuck-machine errors.

    Lists the blocked SPs, any channels with undelivered (unacked)
    messages, and when the machine last made real progress — the three
    facts that distinguish a dataflow deadlock (missing write, no
    pending traffic) from a livelock or lost-message partition (traffic
    pending, progress stopped).
    """
    detail = ""
    if blocked:
        shown = "\n  ".join(blocked[:20])
        detail += f"\nblocked waiters:\n  {shown}"
        if len(blocked) > 20:
            detail += f"\n  ... and {len(blocked) - 20} more"
    if channels:
        shown = "\n  ".join(channels[:20])
        detail += f"\npending message/ack channels:\n  {shown}"
        if len(channels) > 20:
            detail += f"\n  ... and {len(channels) - 20} more"
    if last_progress_us is not None:
        detail += f"\nlast progress at t={last_progress_us:.1f} us"
    return detail


class DeadlockError(RuntimeFault):
    """The machine went idle while SPs were still blocked.

    Under single assignment this means some element was read but never
    written; the diagnostic lists the blocked readers to make the missing
    write findable, plus any channels still holding undelivered messages
    and the last-progress time — so deadlock (no pending traffic),
    livelock, and lost-message cases read differently from the error
    text alone.
    """

    code = "deadlock"

    def __init__(self, message: str, blocked: list[str] | None = None,
                 channels: list[str] | None = None,
                 last_progress_us: float | None = None) -> None:
        self.blocked = blocked or []
        self.channels = channels or []
        self.last_progress_us = last_progress_us
        super().__init__(message + _progress_report(
            self.blocked, self.channels, last_progress_us))


class PEHaltError(RuntimeFault):
    """A halted (crashed) PE stranded the rest of the machine.

    Raised by the simulator when progress stops and a ``pe-halt`` fault
    is the cause: a channel to the dead PE exhausted its retransmit
    budget, or the machine drained with the dead PE holding tokens or
    I-structure pages other SPs need.  Carries the lost PE, the stranded
    SPs (``PE.describe_blocked`` lines), and the channels with
    undelivered messages.
    """

    code = "pe-halt"

    def __init__(self, pe: int, stranded: list[str] | None = None,
                 channels: list[str] | None = None,
                 sim_time_us: float | None = None,
                 last_progress_us: float | None = None) -> None:
        self.pe = pe
        self.stranded = stranded or []
        self.channels = channels or []
        self.sim_time_us = sim_time_us
        when = (f" at t={sim_time_us:.1f} us"
                if sim_time_us is not None else "")
        super().__init__(
            f"PE {pe} halted and cannot recover{when}" + _progress_report(
                self.stranded, self.channels, last_progress_us))


class LivelockError(RuntimeFault):
    """The machine kept firing events without making progress.

    Raised when a channel exhausts its retransmit budget against a
    live-but-unreachable receiver, when the quiescence detector sees
    nothing but retransmissions for longer than the configured window,
    or when a run crosses ``SimConfig.max_sim_time_us`` — the guarantee
    is a structured failure, never a hang.
    """

    code = "livelock"

    def __init__(self, message: str, blocked: list[str] | None = None,
                 channels: list[str] | None = None,
                 sim_time_us: float | None = None,
                 last_progress_us: float | None = None) -> None:
        self.blocked = blocked or []
        self.channels = channels or []
        self.sim_time_us = sim_time_us
        self.last_progress_us = last_progress_us
        super().__init__(message + _progress_report(
            self.blocked, self.channels, last_progress_us))


class ExecutionError(RuntimeFault):
    """An instruction failed while executing (bad opcode, type error, ...)."""

    code = "execution"


class MissingWriteError(ExecutionError):
    """A read of an element no execution order could have written.

    The sequential interpreter's eager analogue of the dataflow
    machine's :class:`DeadlockError`: where the simulator blocks forever
    on the absent element (and diagnoses the drained machine), the
    sequential order reads it immediately and fails here.  Both land on
    the ``deadlock`` code of the shared error taxonomy.
    """

    code = "deadlock"

    def __init__(self, array_id: int, indices: tuple[int, ...]) -> None:
        self.array_id = array_id
        self.indices = indices
        super().__init__(
            f"sequential read of unwritten element {indices} of array "
            f"{array_id} (the program has a true data race)"
        )


class DeferredReadTimeout(ExecutionError):
    """A deferred read spun past its bound (missing write -> deadlock).

    Raised by :meth:`repro.parallel.shm_arrays.ShmArray.read` when an
    absent element never turns present within the read timeout.  Carries
    enough structure for the supervisor (and a human) to see *what* was
    being waited on: the array, the 1-based element index, the flat
    offset, and the worker whose shared-memory segment holds the element
    (the likely — though under inner-dimension Range Filters not
    guaranteed — writer).
    """

    code = "deadlock"

    def __init__(self, array: str, indices: tuple[int, ...], offset: int,
                 owner: int, waited_s: float) -> None:
        self.array = array
        self.indices = indices
        self.offset = offset
        self.owner = owner
        self.waited_s = waited_s
        super().__init__(
            f"deferred read of {array}{list(indices)} (offset {offset}, "
            f"segment owner: worker {owner}) timed out after "
            f"{waited_s:.3f}s (missing write -> deadlock)")


class WorkerSuperseded(ExecutionError):
    """A stale worker generation noticed it has been replaced.

    A worker that hangs long enough for the supervisor to respawn it may
    eventually wake up and keep writing.  The ownership-epoch counters on
    each shared segment let it detect the replacement on its next shared
    access and exit instead of racing its own successor (whose replay
    would have made the duplicate writes benign anyway — single
    assignment means the values are identical — but a prompt exit keeps
    the zombie from burning a core).
    """

    def __init__(self, worker: int, generation: int, current: int) -> None:
        self.worker = worker
        self.generation = generation
        self.current = current
        super().__init__(
            f"worker {worker} generation {generation} superseded by "
            f"generation {current}; exiting")


class WorkerFailure:
    """Structured record of one failed real-parallel worker.

    ``kind`` classifies how the supervisor saw the worker die:

    * ``"error"`` — the worker reported an exception before exiting
      (``code`` is that exception's :data:`ERROR_TAXONOMY` code, declared
      by its class on the far side, and ``detail`` the remote
      traceback; every other kind is the supervisor's own observation
      and has no ``code``);
    * ``"crash"`` — the process exited nonzero/by signal without
      reporting (``exitcode`` is negative for a signal, per
      ``multiprocessing``);
    * ``"lost"`` — the process exited cleanly but never delivered its
      completion message (e.g. it was dropped pre-result);
    * ``"hang"`` — the worker was still alive at the run deadline and
      had to be terminated;
    * ``"stall"`` — the worker was blocked in a deferred-read spin on an
      element that provably can never arrive (every other worker was
      simultaneously blocked or done — the wall-clock analogue of the
      simulator's :class:`DeadlockError`).

    ``generation`` counts executions of the worker's subrange: 1 is the
    original launch, higher values are recovery respawns/takeovers.
    """

    __slots__ = ("worker", "exitcode", "kind", "detail", "generation",
                 "code")

    def __init__(self, worker: int, exitcode: int | None = None,
                 kind: str = "crash", detail: str = "",
                 generation: int = 1, code: str | None = None) -> None:
        self.worker = worker
        self.exitcode = exitcode
        self.kind = kind
        self.detail = detail
        self.generation = generation
        self.code = code

    def __repr__(self) -> str:
        return (f"WorkerFailure(worker={self.worker}, kind={self.kind!r}, "
                f"exitcode={self.exitcode}, generation={self.generation})")

    def describe(self) -> str:
        code = "?" if self.exitcode is None else self.exitcode
        line = f"worker {self.worker}: {self.kind} (exitcode {code}"
        if self.generation > 1:
            line += f", generation {self.generation}"
        line += ")"
        if self.detail:
            line += f"\n{self.detail.rstrip()}"
        return line


class ParallelExecutionError(ExecutionError):
    """One or more real-parallel workers failed; carries the records.

    Subclasses :class:`ExecutionError` so existing ``except
    ExecutionError`` call sites keep working; ``failures`` holds one
    :class:`WorkerFailure` per dead/hung/erroring worker.  When the run
    used the recovery layer, ``recovery`` carries its
    :class:`repro.common.retry.RecoveryLog` so callers can see what
    was attempted before the run was abandoned.
    """

    def __init__(self, message: str,
                 failures: list[WorkerFailure] | None = None,
                 recovery=None) -> None:
        self.failures = list(failures or [])
        self.recovery = recovery
        if self.failures:
            message += "\n" + "\n".join(f.describe() for f in self.failures)
        if recovery is not None and getattr(recovery, "events", None):
            message += f"\nrecovery: {recovery.summary()}"
        super().__init__(message)

    # How abort messages name this backend and its units of parallelism.
    _what, _unit = "parallel", "worker"

    # A program fault some worker reported decides the run's code, most
    # specific first; any other code a worker sent (``runtime``,
    # ``internal``, ...) says the run broke, not the program.
    _PROGRAM_FAULTS = ("single-assignment", "bounds", "deadlock",
                       "execution")

    @property
    def code(self) -> str:
        reported = {f.code for f in self.failures}
        for code in self._PROGRAM_FAULTS:
            if code in reported:
                return code
        if any(f.kind == "stall" for f in self.failures):
            # Every live worker provably blocked — the wall-clock
            # analogue of the simulator's DeadlockError.
            return "deadlock"
        return "worker-failure"

    @classmethod
    def unrecovered(cls, failures: list[WorkerFailure], recovery,
                    fatal_message: str | None, timeout_s: float):
        """The abort for a supervised run that ended with ``failures``."""
        hung = [f.worker for f in failures if f.kind == "hang"]
        if fatal_message is not None:
            message = f"{cls._what} run failed: {fatal_message}"
        elif hung and len(hung) == len(failures):
            message = (f"{cls._what} run timed out after {timeout_s:g}s; "
                       f"unjoined {cls._unit}s: {hung}")
        else:
            message = (f"{cls._what} run failed: {len(failures)} "
                       f"{cls._unit} failure(s) were not recoverable")
        return cls(message, failures, recovery=recovery)

    def __reduce__(self):
        # Default exception pickling re-calls __init__(message), which
        # would drop failures/recovery and re-append describe() text.
        # The distributed backend ships these across a process pipe
        # (forked coordinator -> standby), so preserve them faithfully.
        return (_restore_parallel_error,
                (type(self), str(self), self.failures, self.recovery))


def _restore_parallel_error(cls, message, failures, recovery):
    """Unpickle helper for :class:`ParallelExecutionError` subclasses."""
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    exc.failures = failures
    exc.recovery = recovery
    return exc


class DistExecutionError(ParallelExecutionError):
    """One or more distributed nodes failed; carries the records.

    Subclasses :class:`ParallelExecutionError`, so a node-side program
    fault — single-assignment, bounds, deferred-read deadlock — gives
    the run the same code on the ``dist`` backend as everywhere else.
    ``failures`` holds one :class:`WorkerFailure` per dead/erroring
    *node*.
    """

    _what, _unit = "distributed", "node"


class NodeLossError(DistExecutionError):
    """A lost node could not be healed by takeover.

    The structured endpoint of the distributed backend's degradation
    ladder: node loss is first healed by reassigning the dead node's
    RF subranges to survivors (idempotent presence-bit replay); this
    error is raised only when that ladder is exhausted — recovery
    disabled, the global takeover budget spent, or no survivors left.
    An unhealed node loss is its own code, whatever the surviving
    nodes reported on the way down.
    """

    code = "node-loss"

