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
