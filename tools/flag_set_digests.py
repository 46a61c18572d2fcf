"""Print the sha256 of every output of seven ``pss train`` flag sets.

A change that should not move the numbers must leave these digests
unchanged. Each set is run as ``pss train --preset synthetic`` with
``--save-model``, in a subprocess of its own with BLAS on one thread,
using the ``pss`` package of the tree this script lives in. For each set
the script prints the digests of ``report.json``, ``report.csv`` and
the model file. A run that exits non-zero prints its exit code and the
last line of its stderr instead, and the script then exits 1.

usage:
    python3 tools/flag_set_digests.py

To compare two trees, run each tree's copy of this script (for the base,
copy it into ``BASE_DIR/tools`` after ``git archive BASE | tar -x -C
BASE_DIR``) and diff the outputs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
W2 = ["--train-size", "20000", "--test-size", "2000"]
FLAG_SETS = (
    [],
    W2,
    W2 + ["--baseline"],
    ["--scope", "pss_only"],
    ["--scope", "full_truncated", "--magnitude-freeze", "0.01"],
    ["--split-init", "reverted"],
    ["--magnitude-freeze", "0.01"],  # a freeze held across the hybrid switch
)
OUTPUTS = ("report.json", "report.csv", "model.bin")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run(flags, out):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", "import sys; from pss.cli import main; sys.exit(main())",
           "train", "--preset", "synthetic", *flags,
           "--out", out, "--save-model", os.path.join(out, "model.bin")]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)


def main():
    failed = False
    for flags in FLAG_SETS:
        print("flags:", " ".join(flags) or "(none)")
        with tempfile.TemporaryDirectory() as out:
            done = run(flags, out)
            if done.returncode:
                failed = True
                last = (done.stderr.strip().splitlines() or [""])[-1]
                print(f"  exit {done.returncode}: {last}")
                continue
            for name in OUTPUTS:
                print(f"  {name:<12} {sha256(os.path.join(out, name))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
