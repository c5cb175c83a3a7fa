"""Taxonomy totality for the peer-loss reason constants.

The recovery log, ``peer-lost`` frames and structured aborts all carry
:mod:`repro.dist.reasons` strings; these tests pin the invariants the
producers rely on — the kind mapping is total, a reason and its detail
are formatted together in one place only, and no producer in the dist
package still formats a free-form reason of its own.
"""

import re

import pytest

from repro.dist import reasons


class TestTaxonomyTotality:
    def test_failure_kind_covers_every_reason(self):
        assert set(reasons.FAILURE_KIND) == set(reasons.ALL_REASONS)

    def test_kinds_are_the_two_valued_taxonomy(self):
        assert set(reasons.FAILURE_KIND.values()) <= {"lost", "crash"}

    def test_all_reasons_has_no_duplicates(self):
        assert len(set(reasons.ALL_REASONS)) == len(reasons.ALL_REASONS)

    def test_reason_constants_are_slugs(self):
        # The constants travel in control frames and log lines; keep
        # them colon-free so "<reason>: <detail>" reads unambiguously.
        for r in reasons.ALL_REASONS:
            assert re.fullmatch(r"[a-z][a-z-]*", r), r


class TestRoundTrip:
    """The producing half only: a reason crosses a callback or a frame
    as its own field, so nothing parses one back."""

    @pytest.mark.parametrize("reason", reasons.ALL_REASONS)
    def test_the_one_human_formatter(self, reason):
        assert reasons.reason_string(reason) == reason
        assert reasons.reason_string(reason, "node 3, budget 8: spent") \
            == f"{reason}: node 3, budget 8: spent"

    def test_unknown_reason_rejected_at_the_producer(self):
        with pytest.raises(ValueError):
            reasons.reason_string("fell-over")


class TestFailureKind:
    def test_process_exit_refined_by_exitcode(self):
        assert reasons.failure_kind(reasons.PROCESS_EXIT, 1) == "crash"
        assert reasons.failure_kind(reasons.PROCESS_EXIT, -9) == "crash"
        assert reasons.failure_kind(reasons.PROCESS_EXIT, 0) == "lost"
        assert reasons.failure_kind(reasons.PROCESS_EXIT, None) == "lost"

    @pytest.mark.parametrize("reason", [r for r in reasons.ALL_REASONS
                                        if r != reasons.PROCESS_EXIT])
    def test_exitcode_ignored_elsewhere(self, reason):
        assert reasons.failure_kind(reason, 1) \
            == reasons.FAILURE_KIND[reason]


def test_no_freeform_reason_strings_left_in_producers():
    # The pre-taxonomy producers formatted these loss reasons inline
    # ("retransmit budget exhausted to node 3" etc.); grep-gate the
    # package so a revert cannot silently fork the taxonomy.  (Abort
    # *messages* like "recovery budget exhausted" are out of scope —
    # they ride structured exceptions, not peer-lost frames.)
    import os

    import repro.dist as pkg

    freeform = re.compile(r"re(?:transmit|connect) budget exhausted")
    root = os.path.dirname(pkg.__file__)
    offenders = []
    for fname in os.listdir(root):
        if not fname.endswith(".py") or fname == "reasons.py":
            continue
        with open(os.path.join(root, fname)) as fh:
            src = fh.read()
        if freeform.search(src):
            offenders.append(fname)
    assert not offenders, (
        f"free-form loss reasons in {offenders}; use repro.dist.reasons")
