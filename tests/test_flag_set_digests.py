"""The default-size flag sets of ``tools/flag_set_digests.py`` still give
the digests recorded in ``tools/flag_set_digests.txt``.

Each of the five sets runs through the script's own ``run`` (a
``pss train`` subprocess, BLAS on one thread), about 7 s in all, and the
sha256 of its ``report.json``, ``report.csv`` and ``model.bin`` must equal
the recorded ones. The two ``--train-size 20000`` sets take about 6.5 s
each and stay hand-run: ``python3 tools/flag_set_digests.py`` and a diff
against the file. The digests hold only on the numpy and OpenBLAS build
(and CPU kernels) that the file's first line names; on another, the
test skips and names both lines.
"""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
spec = importlib.util.spec_from_file_location(
    "flag_set_digests", os.path.join(TOOLS, "flag_set_digests.py"))
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def recorded():
    """The file's BLAS line, and per flag set (as printed) its digests by output."""
    with open(os.path.join(TOOLS, "flag_set_digests.txt"), encoding="utf-8") as f:
        blas, *lines = f.read().splitlines()
    sets = {}
    for line in lines:
        if line.startswith("flags:"):
            flags = sets[line] = {}
        else:
            name, digest = line.split()
            flags[name] = digest
    return blas, sets


DEFAULT_SIZE = [flags for flags in digests.FLAG_SETS if "--train-size" not in flags]


def test_five_default_size_sets_and_each_set_recorded():
    _, sets = recorded()
    assert len(DEFAULT_SIZE) == 5
    assert list(sets) == ["flags: " + (" ".join(f) or "(none)") for f in digests.FLAG_SETS]


@pytest.mark.parametrize("flags", DEFAULT_SIZE, ids=lambda f: " ".join(f) or "(none)")
def test_default_size_flag_set_gives_the_recorded_digests(flags, tmp_path):
    blas, sets = recorded()
    here = digests.blas_line()
    if here != blas:
        pytest.skip(f"digests recorded on '{blas}', this machine has '{here}'")
    done = digests.run(flags, str(tmp_path))
    assert done.returncode == 0, done.stderr
    want = sets["flags: " + (" ".join(flags) or "(none)")]
    assert {name: digests.sha256(tmp_path / name) for name in digests.OUTPUTS} == want
