"""Golden-trace regression test.

The fixture ``golden_trace.txt`` pins the *stable* fields of every trace
event — ``seq pe unit kind sp`` — for the fill-and-sum program at n=3 on
2 PEs.  Times and detail strings are deliberately excluded (they move
with the timing model and with formatting), so the fixture only fails
when the scheduling behavior itself changes: different events, different
order, different placement.

If a deliberate change shifts the schedule, regenerate with::

    PYTHONPATH=src python tests/obs/test_golden_trace.py

and review the diff like any other golden-file update.
"""

from __future__ import annotations

import difflib
import os
import sys

try:
    from tests.obs.conftest import golden_line, run_observed, trace_golden
except ImportError:  # running as a script (fixture regeneration)
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
    from tests.obs.conftest import golden_line, run_observed, trace_golden

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_trace.txt")


def current_golden() -> str:
    machine, result = run_observed()
    assert result.value == 36  # sum of i*j over 3x3
    return trace_golden(machine.log.events) + "\n"


def test_trace_matches_golden_fixture():
    with open(FIXTURE) as fh:
        expected = fh.read()
    actual = current_golden()
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile="golden_trace.txt (checked in)",
            tofile="current run",
        ))
        raise AssertionError(
            "trace diverged from the golden fixture (stable fields: "
            "seq pe unit kind sp).\nIf the scheduling change is "
            "intentional, regenerate with\n"
            "  PYTHONPATH=src python tests/obs/test_golden_trace.py\n\n"
            + diff)


def test_golden_lines_are_stable_fields_only():
    machine, _ = run_observed()
    for event in machine.log.events[:10]:
        parts = golden_line(event).split()
        assert len(parts) == 5
        assert parts[0] == str(event.seq)
        assert parts[1] == str(event.pe)


if __name__ == "__main__":  # regenerate the fixture
    text = current_golden()
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text.splitlines())} lines)")
