"""Committed mutants: each row is one deliberate fault in one source file
and the tests that must catch it.

Run every row from the repository root::

    python -m tests.mutants            # or: python -m tests.mutants NAME...

The runner first runs every row's tests on an unchanged copy of ``src/``
(they must pass there, or a failure proves nothing).  Then, per row, it
copies ``src/`` to a temporary directory, replaces the row's ``old`` text
with its ``new`` text in the row's file, and runs each of the row's tests
against that copy: the row passes only if every one of them fails.  A
row with ``survives`` set records a mutant no test can catch yet, and
why; it is run and reported, and does not fail the runner.  Tier-1
(``tests/test_mutants.py``) checks only that each row's ``old`` text
occurs exactly once in its file.

A change that adds or tightens a gate adds the row that fails it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail
    why: str
    survives: str | None = None  # why no test fails it, when none does


MUTANTS = (
    Mutant(
        name="copy-page-replaces",
        file="repro/sim/am.py",
        old="_copy(pe, msg.array_id, msg.page).fill(msg.page_lo, msg.cells)",
        new="_copy(pe, msg.array_id, msg.page).cells[:] = msg.cells",
        tests=(
            "tests/sim/test_array_manager.py::TestCaching::"
            "test_an_older_page_snapshot_keeps_a_replied_value",
            "tests/properties/test_istructure_properties.py::"
            "test_copies_land_in_any_order_to_the_same_cells",
        ),
        why="A page snapshot that replaces a PE's copy drops a value reply "
            "that landed before it, and the next read of that element "
            "misses again.",
    ),
    Mutant(
        name="copy-sized-to-the-array",
        file="repro/sim/am.py",
        old="""        lo = page * header.page_size
        hi = min(lo + header.page_size, header.total_elements)""",
        new="""        lo, hi = 0, header.total_elements""",
        tests=(
            "tests/sim/test_machine_internals.py::TestObserverMemory::"
            "test_unobserved_run_peaks_within_bound",
        ),
        why="A PE's copies held in lists the size of the whole array "
            "model the same run in more memory than page-sized ones.",
    ),
    Mutant(
        name="fill-overwrites",
        file="repro/runtime/istructure.py",
        old="cells[start:end] = [value if cell is None else cell",
        new="cells[start:end] = [value",
        tests=(
            "tests/dist/test_protocol.py::"
            "test_a_run_never_overwrites_a_present_cell",
            "tests/runtime/test_istructure.py::TestPageCopy::"
            "test_an_older_snapshot_keeps_a_replied_value",
        ),
        why="A run's None would unset a cell written meanwhile: a dist "
            "node loses an element, a simulator copy a replied value.",
    ),
    Mutant(
        name="rdy-run-without-held-first",
        file="repro/dist/protocol.py",
        old="""self.held_first.update([
                        (a, off) for off in owned if cells[off] is None
                        and values[off - lo] is not None])""",
        new="pass",
        tests=(
            "tests/dist/test_protocol.py::"
            "test_a_run_marks_held_first_only_on_owned_cells_it_fills",
        ),
        why="An owned element a rdy run fills is held before its original "
            "write arrives; without the mark that write is a double "
            "assignment instead of a verification.",
    ),
    Mutant(
        name="join-without-operands",
        file="repro/graph/ir.py",
        old='JoinDef: ("then_vid", "else_vid"),',
        new="JoinDef: (),",
        tests=(
            "tests/translator/test_compile_fingerprint.py::"
            "test_compile_output_is_unchanged[example-branches]",
            "tests/translator/test_compile_fingerprint.py::"
            "test_compile_output_is_unchanged[example-branches+opt]",
        ),
        why="A join that names neither branch value loses its arcs in "
            "to_dot, and dead-code elimination drops the branch values "
            "it merges, which validate_graph then refuses.",
    ),
    Mutant(
        name="regions-without-while-condition",
        file="repro/graph/ir.py",
        old="""    out = ([block.body, block.cond_region] if block.kind == WHILE
           else [block.body])""",
        new="""    out = [block.body]""",
        tests=(
            "tests/translator/test_compile_fingerprint.py::"
            "test_compile_output_is_unchanged[example-branches]",
            "tests/translator/test_compile_fingerprint.py::"
            "test_compile_output_is_unchanged[example-branches+opt]",
            "tests/graph/test_ir_shape.py::test_regions_and_invoke_sites",
        ),
        why="A while loop's computed condition drops out of every pass "
            "that walks regions: the renderings lose its operators, and "
            "common subexpressions in it stay.",
    ),
    Mutant(
        name="subtree-body-before-condition",
        file="repro/graph/ir.py",
        old="""        if block.kind == WHILE:
            walk(block, block.cond_region)
        walk(block, block.body)""",
        new="""        walk(block, block.body)
        if block.kind == WHILE:
            walk(block, block.cond_region)""",
        tests=(
            "tests/graph/test_ir_shape.py::test_subtree_is_program_order",
        ),
        why="subtree promises program order.  No compiler output shows "
            "this one: a condition never writes, so the Range Filter's "
            "first usable write is the same, and a while loop is an LCD "
            "whatever its accesses are; only the order test does.",
    ),
    Mutant(
        name="rdy-lands-without-release",
        file="repro/dist/protocol.py",
        old="""            for off, waiters in seg.fill(lo, values):
                actions += self._release(a, off, values[off - lo], waiters)""",
        new="""            for off, waiters in seg.fill(lo, values):
                pass""",
        tests=(
            "tests/dist/test_protocol.py::"
            "test_a_run_releases_the_readers_in_its_range_in_fifo_order",
            "tests/dist/test_cluster.py::"
            "test_a_run_over_a_parked_read_releases_it",
        ),
        why="A run that stores the cells it fills but releases nobody "
            "leaves every reader parked on them waiting for a write that "
            "has already landed.",
    ),
    Mutant(
        name="store-without-held-first",
        file="repro/dist/protocol.py",
        old="""            if ((a, off) in self.held_first
                    and self.segments[a].get(off) == value):
                return []""",
        new="""            if False:
                return []""",
        tests=(
            "tests/dist/test_protocol.py::"
            "test_an_original_write_after_its_replay_is_no_violation",
            "tests/dist/test_cluster.py::"
            "test_every_drawn_schedule_finishes_equal_or_classified",
        ),
        why="An original write reaching an owner that held the element "
            "first (by a replay or a run) is the same value, not a second "
            "assignment; without the exemption it is reported as one.",
    ),
    Mutant(
        name="miss-asks-one-page",
        file="repro/dist/node.py",
        old="self.protocol.read(arr.ordinal, off, _RUN_CAP, fut)",
        new="self.protocol.read(arr.ordinal, off, self.cfg.page_size, fut)",
        tests=(
            "tests/dist/test_backend.py::TestCrossings::"
            "test_a_remote_scan_asks_once_for_the_whole_run[row]",
            "tests/dist/test_backend.py::TestCrossings::"
            "test_a_remote_scan_asks_once_for_the_whole_run[column]",
            "tests/dist/test_backend.py::TestCrossings::"
            "test_a_scan_counts_each_read_once",
        ),
        why="A miss that asks for one page pays a round trip per page of "
            "a remote scan where one request for the run carries it all.",
    ),
    Mutant(
        name="probe-without-reload",
        file="repro/baseline/sequential.py",
        old="""f"    if {fields['seen']} is None: {reload}\"""",
        new="""f"    pass\"""",
        tests=(
            "tests/runtime/test_spmd.py::TestSpmdHostWorkBudget::"
            "test_a_miss_reloads_the_loops_probe",
        ),
        why="A loop that entered before a shared-memory handle had its "
            "mirror keeps probing no list: every read of the loop, of an "
            "element it has read before too, calls the handle's read.",
    ),
    Mutant(
        name="hoisted-terms-kept-after-reload",
        file="repro/baseline/sequential.py",
        old="""                self.lines[k] = f"{line}; {'; '.join(again)}\"""",
        new="""                self.lines[k] = line""",
        tests=(
            "tests/runtime/test_spmd.py::TestSpmdHostWorkBudget::"
            "test_a_reload_recomputes_what_the_loop_tests_once",
        ),
        why="A loop that entered before the handle had its list tests "
            "the invariant row against extents of 0 until the loop ends: "
            "every read of it, of an element read before too, misses.",
    ),
    Mutant(
        name="carried-subscript-hoisted",
        file="repro/baseline/sequential.py",
        old="""                            or type(sub) is A.Var and sub.name
                            not in hoist.carried
                            and self.sc.slot_of(sub.name) < hoist.outer):""",
        new="""                            or type(sub) is A.Var
                            and self.sc.slot_of(sub.name) < hoist.outer):""",
        tests=(
            "tests/runtime/test_probe_differential.py::"
            "test_the_probe_agrees_with_seq[carried]",
        ),
        why="A subscript a next rebinds changes in the loop; tested and "
            "offset once at its entry, every read takes the first "
            "iteration's row.",
    ),
    Mutant(
        name="loop-range-without-type-tests",
        file="repro/baseline/sequential.py",
        old="""                    typed += f"type({bound}) is int and \"""",
        new="""                    pass""",
        tests=(
            "tests/runtime/test_probe_differential.py::"
            "test_the_probe_agrees_with_seq[float-bounds]",
        ),
        why="Float bounds inside the extent pass the loop's range test, "
            "so the probe indexes its list with a float: a raw TypeError "
            "where every backend reports a bounds error.",
    ),
    Mutant(
        name="descending-loop-range-ascending",
        file="repro/baseline/sequential.py",
        old="""lo, hi = (last, first) if stmt.descending else (first, last)""",
        new="""lo, hi = first, last""",
        tests=(
            "tests/runtime/test_probe_differential.py::"
            "test_the_probe_agrees_with_seq[descending-past-1]",
            "tests/runtime/test_probe_differential.py::"
            "test_the_probe_agrees_with_seq[descending-past-n]",
        ),
        why="A descending loop's range tested as if ascending passes a "
            "range that leaves the extent: index 0 reads the list's last "
            "element, and n + 1 the next row's first.",
    ),
    Mutant(
        name="span-over-a-rebound-bound",
        file="repro/baseline/sequential.py",
        old="""                if rf is None and type(e) is A.Var and e.name in hoist.carried:""",
        new="""                if False:""",
        tests=(
            "tests/runtime/test_probe_differential.py::"
            "test_the_probe_agrees_with_seq[carried-bound]",
        ),
        why="A bound a next rebinds has moved when a reload tests the "
            "loop's range again, so the range passes that the loop, "
            "which took its bounds at entry, leaves: a raw IndexError.",
    ),
    Mutant(
        name="hits-never-counted",
        file="repro/baseline/sequential.py",
        old="""            self.emit(f"if {hits}: {arr}.reads += {hits}")""",
        new="""            pass""",
        tests=(
            "tests/runtime/test_spmd.py::"
            "test_shared_reads_count_each_read_once[shm-2]",
            "tests/runtime/test_spmd.py::"
            "test_shared_reads_count_each_read_once[plain-1]",
        ),
        why="The reads a loop's probe answers are counted in a local; "
            "never added to the handle, shared_reads counts only misses.",
    ),
    Mutant(
        name="in-place-write-in-replicated-code",
        file="repro/baseline/sequential.py",
        old="if self.in_place and self.bodies",
        new="if self.in_place",
        tests=(
            "tests/runtime/test_spmd.py::"
            "test_replicated_writes_land_once_at_the_owner"
            "[top-level-2-single-identity]",
            "tests/runtime/test_spmd.py::"
            "test_replicated_writes_land_once_at_the_owner"
            "[serial-loop-3-single-identity]",
        ),
        why="Only a Range-Filter body's write is this identity's; a "
            "replicated write called in place is made by every identity, "
            "a second assignment at width 2 or more.",
    ),
    Mutant(
        name="subranges-outside-the-iteration",
        file="repro/runtime/spmd.py",
        old="""        self.in_distributed += 1
        try:""",
        new="""        try:""",
        tests=(
            "tests/runtime/test_spmd.py::"
            "test_arrays_allocated_inside_a_distributed_iteration_are_private",
        ),
        why="Without the count a distributed iteration is replicated code "
            "to the core: an array it allocates is shared, under an "
            "ordinal the other identities never allocate.",
    ),
    Mutant(
        name="descending-identities-lowest-first",
        file="repro/runtime/spmd.py",
        old="""        idents = (tuple(reversed(self.identities)) if descending
                  else self.identities)""",
        new="""        idents = self.identities""",
        tests=(
            "tests/runtime/test_spmd.py::TestOuterLoopTiling::"
            "test_subranges_tile_the_iteration_space_once"
            "[descending-2-takeover]",
            "tests/runtime/test_spmd.py::TestOuterLoopTiling::"
            "test_subranges_tile_the_iteration_space_once"
            "[descending-5-takeover]",
        ),
        why="A process that adopted several identities runs a descending "
            "loop's subranges against the global iteration order, so a "
            "sweep waits on its own later subrange.",
    ),
    Mutant(
        name="static-subranges-without-entry-sync",
        file="repro/baseline/static_pr.py",
        old="""        for p in range(self.num_pes):
            self.clocks.times[p] = max(self.clocks.times[p], entry)""",
        new="""        pass""",
        tests=(
            "tests/baseline/test_reference_fingerprint.py::"
            "test_app_bit_identical[stencil]",
            "tests/baseline/test_reference_fingerprint.py::"
            "test_app_bit_identical[simple@8x1]",
        ),
        why="Every PE enters a distributed loop together; without the "
            "sync a PE that finished the last one early starts this one "
            "early, and the modeled times leave the reference's bits.",
    ),
    Mutant(
        name="static-context-left-on-the-last-pe",
        file="repro/baseline/static_pr.py",
        old="""        finally:
            self.clocks.ctx = "all\"""",
        new="""        finally:
            pass""",
        tests=(
            "tests/baseline/test_reference_fingerprint.py::"
            "test_app_bit_identical[matmul]",
            "tests/baseline/test_reference_fingerprint.py::"
            "test_app_bit_identical[simple@8x1]",
        ),
        why="Replicated code after a distributed loop runs on every PE; "
            "left in the last PE's context, only that PE's clock pays "
            "for it and the next distributed loop is not split.",
    ),
    Mutant(
        name="hand-over-without-lock",
        file="repro/dist/node.py",
        old="""            with self._hand_lock:
                wake = not self._handed
                self._handed += frames""",
        new="""            if True:
                wake = not self._handed
                self._handed += frames""",
        tests=(
            "tests/dist/test_backend.py::TestHandOvers::"
            "test_executors_racing_the_loop_hand_over_every_frame_once",
        ),
        why="Executor threads append to the queue the loop thread swaps "
            "out; unlocked, a frame can be lost or a wake skipped.",
        survives="CPython 3.11 does not switch threads inside those few "
                 "bytecodes, even at a 1 us switch interval, so the race "
                 "test passes without the lock; the lock is kept for "
                 "correctness, not shown by a test.",
    ),
)


def _pytest(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p",
           "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy_src(tmp: str) -> Path:
    dst = Path(tmp) / "src"
    shutil.copytree(SRC, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def run(mutants=MUTANTS) -> bool:
    """Run each row; True when every row that should fail its tests
    does, and the tests pass on the unchanged source."""
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy_src(tmp), tests) != 0:
            print("the rows' tests fail on the unchanged source")
            return False
    ok = True
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            text = (src / m.file).read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times")
                ok = False
                continue
            (src / m.file).write_text(text.replace(m.old, m.new))
            passing = [t for t in m.tests if _pytest(src, [t]) == 0]
        if m.survives is not None:
            verdict = (f"survives, as recorded: {m.survives}" if passing
                       else "killed: its tests now fail it, make it a row "
                       "that must fail")
        else:
            verdict = ("killed" if not passing
                       else f"SURVIVED: {', '.join(passing)} passed")
            ok &= not passing
        print(f"{m.name}: {verdict}")
    return ok


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    return 0 if run(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
