"""Time one-image ``predict`` of two source trees in one process, interleaved.

A perfbench timing can move by several percent between builds that make
the same BLAS calls: heap layout and the machine's speed differ from
process to process. This script times the code path alone. It loads one
saved model with this tree's ``pss`` and with a base tree's package,
imported under the name ``pss_base``, and sends each pool image to both
sides back to back as an ``argmax(predict(x))`` request. Which side goes
first alternates from image to image and from round to round. A round is
one pass over the pool and gives one p90 per side.

Before timing, every one-image result and the batched pool result must be
byte-equal between the two trees; otherwise the script names the first
request that differs and exits 1. A ``--rounds`` below 1 or a
``--requests`` outside 1..1000 exits 2.

usage:
    git archive BASE src/pss | tar -x -C BASE_DIR
    python3 tools/interleaved_predict.py BASE_DIR/src/pss MODEL \\
        [--rounds 12] [--requests 1000] [--json OUT]

MODEL is a ``pss train --save-model`` file that both trees can read. The
pool is the head of the test set of ``synthetic_digits(2000, 1000,
seed=0)``. BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise.
"""

import argparse
import importlib.util
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from pss import model_io  # noqa: E402
from pss.data import synthetic_digits  # noqa: E402


def import_base(pkg_dir, name="pss_base"):
    """The ``model_io`` of the package at ``pkg_dir``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.model_io")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the base tree's package directory (src/pss)")
    parser.add_argument("model", help="a saved model both trees can read")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--requests", type=int, default=1000, help="pool size, at most 1000")
    parser.add_argument("--json", help="write the per-round p90s and p99s here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not 1 <= args.requests <= 1000:
        parser.error("--requests must be in 1..1000")

    nets = {"base": import_base(args.base).load_model(args.model),
            "this": model_io.load_model(args.model)}
    _, test = synthetic_digits(2000, 1000, seed=0)
    pool = np.ascontiguousarray(test.images[:args.requests])
    for i in range(len(pool)):
        x = pool[i:i + 1]
        if nets["base"].predict(x).tobytes() != nets["this"].predict(x).tobytes():
            print(f"one-image request {i} differs between the trees", file=sys.stderr)
            return 1
    if nets["base"].predict(pool).tobytes() != nets["this"].predict(pool).tobytes():
        print("the batched pool differs between the trees", file=sys.stderr)
        return 1
    print(f"bytes equal on {len(pool)} one-image requests and the batched pool")

    p90 = {"base": [], "this": []}
    p99 = {"base": [], "this": []}
    for r in range(args.rounds):
        times = {"base": [], "this": []}
        for i in range(len(pool)):
            x = pool[i:i + 1]
            for side in (("base", "this") if (r + i) % 2 == 0 else ("this", "base")):
                t0 = time.perf_counter()
                np.argmax(nets[side].predict(x))
                times[side].append(time.perf_counter() - t0)
        for side, ts in times.items():
            p90[side].append(float(np.percentile(ts, 90)) * 1e3)
            p99[side].append(float(np.percentile(ts, 99)) * 1e3)
        print(f"round {r}: p90 base {p90['base'][-1]:.4f} ms, this {p90['this'][-1]:.4f} ms")

    median = {side: float(np.median(v)) for side, v in p90.items()}
    q1, q3 = np.percentile(p90["base"], [25, 75])
    wins = sum(t < b for b, t in zip(p90["base"], p90["this"]))
    print(f"median p90: base {median['base']:.4f} ms, this {median['this']:.4f} ms "
          f"({median['this'] / median['base'] - 1:+.1%}); this tree faster in "
          f"{wins} of {args.rounds} rounds; base IQR {q3 - q1:.4f} ms")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"rounds": args.rounds, "requests_per_round": len(pool),
                       "p90_ms": p90, "p99_ms": p99, "median_p90_ms": median,
                       "this_faster_in": f"{wins} of {args.rounds}",
                       "base_p90_iqr_ms": float(q3 - q1)}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
