"""Run the named mutants of the training step and check that tests kill them.

A mutant is a deliberate fault: in one file of the tree, an exact text
that occurs there once is replaced, and the tests named with it must
then fail. For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the replacement
there (the tree itself is never edited) and runs pytest with ``-x`` on
the mutant's tests, with ``PYTHONPATH`` set to the copy's ``src``. It
prints one line per mutant:

    killed    NAME  SECONDS
    survived  NAME  SECONDS
    stale     NAME  (text occurs N times)

A mutant is killed when pytest reports a failing test (exit 1); any
other exit is reported as survived. The script exits 1 when a mutant
survives or is stale, else 0. A stale mutant's text no longer matches
the code: re-anchor it on the code that now does that job rather than
dropping it.

usage:
    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    text: str  # must occur exactly once in ``path``
    replacement: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("pad-velocity-keeps-reset-rows", "src/pss/numerics.py",
           "        new.weights[rows] = new.bias[rows] = 0.0\n",
           "        pass\n",
           ("tests/test_numerics.py::TestSgdStep::test_pad_velocity_shapes_the_trainable_rows",
            "tests/test_trainer.py::TestVelocityRule")),
    Mutant("sgd-frozen-set-without-block-offset", "src/pss/numerics.py",
           "_zero_frozen(v_block, layer.frozen, o + r)",
           "_zero_frozen(v_block, layer.frozen, o)",
           ("tests/test_numerics.py::TestSgdStep::test_non_finite_update_changes_nothing",)),
    Mutant("sgd-finiteness-in-last-block-only", "src/pss/numerics.py",
           "            if not np.isfinite(w_block).all():\n",
           "            if r + step >= len(w) and not np.isfinite(w_block).all():\n",
           ("tests/test_numerics.py::TestSgdStep::test_non_finite_update_changes_nothing",)),
    # right for a separate gradient, wrong for one written into the velocity's spare
    Mutant("sgd-stages-m-v-in-the-velocity-spare", "src/pss/numerics.py",
           "            w_block = np.multiply(v.weights[block], momentum, out=w[block])\n"
           "            v_block = np.add(g.weights[block], w_block, out=v_w[block])\n",
           "            v_block = np.multiply(v.weights[block], momentum, out=v_w[block])\n"
           "            v_block += g.weights[block]\n"
           "            w_block = w[block]\n",
           ("tests/test_dense_oracle.py",)),
    Mutant("sgd-spare-swap-skipped", "src/pss/numerics.py",
           "        v.spare, v.weights, v.bias = (v.weights, v.bias, w, b), v_w, v_b\n",
           "        v.weights, v.bias = v_w, v_b\n",
           ("tests/test_numerics.py::TestSgdStep::test_two_steps_by_hand",
            "tests/test_dense_oracle.py")),
)


def occurrences(mutant, root=ROOT):
    with open(os.path.join(root, mutant.path), encoding="utf-8") as f:
        return f.read().count(mutant.text)


def run(mutant):
    """Apply ``mutant`` to a temporary copy of the tree and run its tests;
    returns ``(killed, seconds)``."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as f:
            code = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(code.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return done.returncode == 1, time.perf_counter() - started


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = False
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        found = occurrences(mutant)
        if found != 1:
            print(f"stale     {mutant.name}  (text occurs {found} times)")
            bad = True
            continue
        killed, seconds = run(mutant)
        print(f"{'killed  ' if killed else 'survived'}  {mutant.name}  {seconds:.1f}",
              flush=True)
        bad |= not killed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
