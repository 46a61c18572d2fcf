"""The named mutants of ``tools/mutants.py`` still apply, and one is killed.

Every mutant's text must occur exactly once in its file, so a refactor
that moves the code it faults shows here, in milliseconds, instead of
leaving a mutant that can no longer run. One mutant then runs end to
end through the tool: its copy of the tree fails its listed test. The
full run is ``python3 tools/mutants.py``.
"""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
spec = importlib.util.spec_from_file_location("mutants", os.path.join(TOOLS, "mutants.py"))
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_text_occurs_once(mutant):
    assert mutant.text != mutant.replacement
    assert mutants.occurrences(mutant) == 1
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(mutants.ROOT, test.split("::")[0]))


def test_a_mutant_runs_and_is_killed():
    [mutant] = [m for m in mutants.MUTANTS if m.name == "sgd-finiteness-in-last-block-only"]
    killed, _ = mutants.run(mutant)
    assert killed
