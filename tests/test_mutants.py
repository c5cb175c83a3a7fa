"""The committed mutants still apply: each row's old text occurs exactly
once in its file (``python -m tests.mutants`` runs them)."""

import pytest

from tests.mutants import MUTANTS, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_old_text_occurs_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests and mutant.why
