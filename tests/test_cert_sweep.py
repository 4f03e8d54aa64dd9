"""The mutation sweep's edits still find their targets.

tests/cert_sweep.py applies each mutant as an exact text edit and stops
at an old text that does not occur exactly once, but only when the
five-minute sweep runs; this checks every target in seconds.
"""

import pytest

from cert_sweep import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("name, rel, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_old_text_occurs_once_in_its_file(name, rel, old, new):
    assert (ROOT / rel).read_text().count(old) == 1
    assert new != old


def test_mutant_names_are_unique_and_name_every_equivalent():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert set(EQUIVALENT) <= set(names)
