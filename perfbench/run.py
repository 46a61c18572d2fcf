"""Benchmark of pss: lifelong training and task-agnostic argmax serving.

Run from the repository root:

    python3 perfbench/run.py --workload lifelong-hybrid --seed 0 \\
        --seconds 15 --trace 0

Workloads (see ``workloads.py``):

``lifelong-hybrid``
    ``pss train --preset synthetic --train-size 20000 --test-size 2000``,
    the paper's own path: split, freeze closed generations, grow.
``finetune-dense``
    the same corpus with ``--baseline``: one generation, nothing frozen,
    every weight written on every step.
``serve-argmax``
    trains, saves and reloads the default ``pss train --preset
    synthetic`` run, then answers requests for ``--seconds``.

A request is one pool image, answered with ``argmax(net.predict(x))``
from one client in a closed loop; the lifelong workloads also serve
each trained network this way for two seconds. The default seed is 0
and the held-out seed is 1. The seed draws the request order; the same
seed gives the same inputs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
set-up and one lifelong run (or one pass over the pool) untraced in
this process, then the same work traced in a child process, and prints
the per-layer metrics of the traced pass plus the tracing overhead,
the traced wall time over the untraced one minus 1. The traced
report's sha256 must equal the untraced one's.

Every metric is printed as ``name value unit``. The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The environment (source digest, git sha when there is a
``.git``, nproc, numpy and BLAS versions, BLAS threads, seed) is
printed with the result and saved, with the result, under
``.bench_build/perfbench/results``. The traced pass's spans go to
``.bench_build/perfbench/spans``. The exit code is 0 whenever a result
is printed, and 2 when the checkout has no ``src/pss`` to measure.

``python3 -m pytest perfbench`` runs the benchmark's self-test at tiny
sizes.
"""

import os

# Results compare only at equal BLAS thread counts: the report itself
# differs between 1 and 2 OpenBLAS threads. Pinned before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("lifelong-hybrid", "finetune-dense", "serve-argmax")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the measured operations run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every workload for the self-test.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Marks the child process that runs the traced pass.
    p.add_argument("--traced-child", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def import_pss():
    """Import the package under ``src``; None when it is not there."""
    if not (SRC / "pss" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import pss
    if Path(pss.__file__).resolve().parent != SRC / "pss":
        return None
    return pss


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pss").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "source_sha256": source_digest(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def traced_child(args, work_dir):
    """Run the single pass with every ``pss`` layer wrapped; print the
    per-layer metrics as one JSON line."""
    from tracer import Tracer
    import workloads

    tracer = Tracer()
    tracer.install()
    outcome = workloads.run(args.workload, args.seed, args.seconds, work_dir,
                            tiny=args.tiny, single=True)
    metrics = tracer.metrics()
    metrics["model_io.model_bytes"] = (outcome.model_bytes, "bytes")
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "metrics": metrics, "wall_s": outcome.wall_s,
        "self_s": tracer.self_time_total(), "spans": len(tracer.spans),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems,
        "report_sha256": outcome.report_sha256}))


def traced(args, work_dir):
    """The untraced single pass here, the traced one in a child process."""
    import workloads

    untraced = workloads.run(args.workload, args.seed, args.seconds, work_dir,
                             tiny=args.tiny, single=True)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--traced-child"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    child = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in child["metrics"].items()}
    metrics["trace.wall_s"] = (child["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    metrics["trace.overhead_share"] = (
        child["wall_s"] / untraced.wall_s - 1.0, "fraction")
    metrics["trace.covered_share"] = (
        child["self_s"] / child["wall_s"], "fraction")
    metrics["trace.spans"] = (child["spans"], "count")
    problems = untraced.problems + child["problems"]
    failed = untraced.failed + child["failed"]
    if child["report_sha256"] != untraced.report_sha256:
        problems.append("traced report sha256 differs from the untraced one")
        failed += 1
    return {"metrics": metrics, "attempted": untraced.attempted
            + child["attempted"], "failed": failed, "problems": problems,
            "report_sha256": {"untraced": untraced.report_sha256,
                              "traced": child["report_sha256"]}}


def untraced(args, work_dir):
    import workloads

    outcome = workloads.run(args.workload, args.seed, args.seconds, work_dir,
                            tiny=args.tiny)
    return {"metrics": outcome.metrics, "attempted": outcome.attempted,
            "failed": outcome.failed, "problems": outcome.problems,
            "report_sha256": outcome.report_sha256}


def main(argv=None):
    args = parse_args(argv)
    if import_pss() is None:
        print(f"error: no pss package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.traced_child:
            traced_child(args, str(work_dir))
            return 0
        result = (traced if args.trace else untraced)(args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args)
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ops_share {failed / attempted!r} fraction "
          f"({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    record = dict(result, env=env, finished=time.time())
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
