"""The benchmark's workloads: set-up, measured operations and their checks.

Every workload reproduces the calls ``pss train`` makes (build the task
stream, train, export the report) through the ``pss`` modules' own
attributes, so a traced pass sees every call. Each trained network then
answers one-image requests, ``argmax(net.predict(x))``, from one client
in a closed loop: the task-agnostic inference the paper scores.

The training runs are fixed by the workload: each is the run of the
``pss train`` command named below with every other flag at its default,
seed 0 included. The benchmark seed draws the request stream sent to
the trained network, a fresh permutation of the multiclass pool per
pass. Training on a corpus drawn from the benchmark seed was measured
and rejected: the network it grows ranges from [438, 270] to
[635, 353] hidden units across seeds, which moves training time by
a quarter and would drown any change under test.

An operation is one lifelong run or one request. A run fails when its
report is not byte-identical to the workload's first run, when
``report.json`` differs from ``RunReport.to_json()`` or does not
survive a JSON round trip, or when the argmax accuracy of the requests
over the whole pool differs from the report's last multiclass entry.
A request fails when its class differs from the argmax of the batched
pool logits. In ``serve-argmax`` a run also fails when the reloaded
model's pool logits differ from the in-memory network's in any byte.
"""

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pss import cli, evaluation, model_io, trainer

# ``pss train`` flags of each workload's lifelong run.
WORKLOADS = {
    "lifelong-hybrid": ("--train-size", "20000", "--test-size", "2000"),
    "finetune-dense": ("--train-size", "20000", "--test-size", "2000",
                       "--baseline"),
    "serve-argmax": (),
}
# Appended by ``--tiny`` so the self-test runs in seconds.
TINY_FLAGS = ("--train-size", "300", "--test-size", "200", "--epochs", "2",
              "--hidden-sizes", "24,12", "--sigma", "0.02")

SETUP_REPEATS = 3    # set-ups per run; setup_s is their median
MIN_RUNS = 2         # lifelong runs per run, so determinism is checked
SERVE_S = 2.0        # least serving time after each lifelong run
WINDOW = 1000        # requests per window; its p99 has ten beyond it


@dataclass
class Outcome:
    """What one pass over a workload measured and checked."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    report_sha256: list = field(default_factory=list)
    model_bytes: int = 0
    wall_s: float = 0.0

    def check(self, problems):
        """Count one operation, failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_config(flags, out_dir):
    args = cli.build_parser().parse_args(
        ["train", "--preset", "synthetic", "--out", out_dir, *flags])
    return cli.RunConfig.from_args(args)


def train(cfg, stream):
    """Train and export as ``pss train`` does; returns the network, the
    report, the wall time of training and the bytes of report.json."""
    started = time.perf_counter()
    if cfg.baseline:
        net, report = trainer.run_baseline_finetune(stream, cfg.trainer)
    else:
        net, report = trainer.run_lifelong(stream, cfg.trainer)
    train_s = time.perf_counter() - started
    json_path, _ = evaluation.export(report, cfg.out_dir)
    with open(json_path, "rb") as f:
        raw = f.read()
    return net, report, train_s, raw


def report_problems(report, raw, outcome):
    sha = hashlib.sha256(raw).hexdigest()
    outcome.report_sha256.append(sha)
    problems = []
    if sha != outcome.report_sha256[0]:
        problems.append(f"report sha256 {sha} differs from the first run's")
    text = report.to_json()
    if raw != text.encode("utf-8"):
        problems.append("report.json differs from RunReport.to_json()")
    if evaluation.RunReport.from_json(text).to_json() != text:
        problems.append("report changes in a JSON round trip")
    return problems


def serve_pass(net, stream, report, rng, latencies, outcome):
    """Send every pool image as a one-image request, in a random order.

    Each request is answered by ``argmax(net.predict(x))`` and fails
    when that differs from the argmax of the batched pool logits.
    Returns the pass's wall time and its problems: none unless the
    requests' argmax accuracy differs from the report's.
    """
    pool_x, pool_y = stream.pool_x, stream.pool_y
    expected = np.argmax(net.predict(pool_x), axis=1)
    order = rng.permutation(len(pool_x))
    preds = np.empty(len(order), dtype=np.int64)
    started = time.perf_counter()
    for k, i in enumerate(order):
        t0 = time.perf_counter()
        preds[k] = np.argmax(net.predict(pool_x[i:i + 1]))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    wrong = np.flatnonzero(preds != expected[order])
    outcome.attempted += len(order)
    outcome.failed += len(wrong)
    outcome.problems += [
        f"request for pool image {order[k]} answered {preds[k]}, "
        f"batched argmax is {expected[order[k]]}" for k in wrong[:3]]
    accuracy = float(np.mean(preds == pool_y[order]))
    if accuracy == report.multiclass[-1]:
        return wall, []
    return wall, [f"request accuracy {accuracy!r} differs from the "
                  f"report's multiclass {report.multiclass[-1]!r}"]


def _samples(cfg, stream):
    return sum(len(t.train) for t in stream) * cfg.trainer.epochs_per_task


def _end_to_end(outcome, setup_s, train_rates, report, latencies):
    """Latency percentiles are medians over windows of ``WINDOW``
    requests, so one stall moves one window only.

    The median latency is not reported: on a 2-core shared VM one
    request takes either about 0.7 or about 1.2 ms, and the share of
    each mode drifts over tens of seconds, so the median jumps between
    the modes from run to run (its spread over ten runs reached 0.44 of
    its median). The 90th and 99th percentiles stay in the upper mode.
    """
    lat = np.asarray(latencies)
    count = max(1, len(lat) // WINDOW)
    windows = np.array_split(lat[:count * WINDOW] if len(lat) >= WINDOW
                             else lat, count)

    def percentile_ms(q):
        return statistics.median(np.percentile(w, q) * 1e3 for w in windows)

    outcome.metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_samples_per_s": (statistics.median(train_rates), "samples/s"),
        "final_average_accuracy": (report.final_average_accuracy(), "fraction"),
        "mean_forgetting": (report.mean_forgetting(), "fraction"),
        "multiclass_accuracy": (report.multiclass[-1], "fraction"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "predict_ms_p90": (percentile_ms(90), "ms"),
        "predict_ms_p99": (percentile_ms(99), "ms"),
    }


def lifelong(flags, seed, seconds, repeats, min_runs, work_dir):
    """Build the stream ``repeats`` times, then train while another run
    fits in ``seconds``, at least ``min_runs`` runs. Each trained network
    answers requests in whole passes over the pool for ``SERVE_S`` but
    at most ``seconds``, at least one pass."""
    outcome = Outcome()
    started = time.perf_counter()
    setup_s = []
    stream = None
    for _ in range(repeats):
        stream = None  # free the previous stream before building the next
        t0 = time.perf_counter()
        cfg = run_config(flags, work_dir)
        stream = cfg.build_stream()
        setup_s.append(time.perf_counter() - t0)
    samples = _samples(cfg, stream)
    rng = np.random.default_rng(seed)
    train_rates, latencies = [], []
    runs_started = time.perf_counter()

    def another_run_fits():
        done = len(train_rates)
        elapsed = time.perf_counter() - runs_started
        return done < min_runs or elapsed + elapsed / done <= seconds

    while another_run_fits():
        net, report, train_s, raw = train(cfg, stream)
        train_rates.append(samples / train_s)
        problems = report_problems(report, raw, outcome)
        served = 0.0
        while not served or served < min(SERVE_S, seconds):
            wall, failed = serve_pass(net, stream, report, rng, latencies,
                                      outcome)
            served += wall
            problems += failed
        outcome.check(problems)
    _end_to_end(outcome, setup_s, train_rates, report, latencies)
    outcome.wall_s = time.perf_counter() - started
    return outcome


def serve(flags, seed, seconds, repeats, work_dir):
    """Train, save and reload the model ``repeats`` times, then answer
    one-image requests from one client in a closed loop until
    ``seconds`` have passed, in whole passes over the pool."""
    outcome = Outcome()
    started = time.perf_counter()
    setup_s, train_rates = [], []
    model_path = os.path.join(work_dir, "model.bin")
    for _ in range(repeats):
        stream = net = loaded = None
        t0 = time.perf_counter()
        cfg = run_config(flags, work_dir)
        stream = cfg.build_stream()
        net, report, train_s, raw = train(cfg, stream)
        model_io.save_model(model_path, net)
        loaded = model_io.load_model(model_path)
        setup_s.append(time.perf_counter() - t0)
        train_rates.append(_samples(cfg, stream) / train_s)
        problems = report_problems(report, raw, outcome)
        if (loaded.predict(stream.pool_x).tobytes()
                != net.predict(stream.pool_x).tobytes()):
            problems.append("reloaded model's pool logits differ from the "
                            "trained network's")
        outcome.check(problems)
    outcome.model_bytes = os.path.getsize(model_path)
    net = None
    rng = np.random.default_rng(seed)
    latencies = []
    serving = time.perf_counter()
    while not latencies or time.perf_counter() - serving < seconds:
        _, problems = serve_pass(loaded, stream, report, rng, latencies,
                                 outcome)
        # A wrong accuracy is one more failed check of the model's run.
        outcome.failed += bool(problems)
        outcome.problems += problems
    _end_to_end(outcome, setup_s, train_rates, report, latencies)
    outcome.wall_s = time.perf_counter() - started
    return outcome


def run(workload, seed, seconds, work_dir, tiny=False, single=False):
    """Run one workload. ``single`` runs one set-up and one lifelong run
    or one pass over the pool, the work a traced pass repeats exactly."""
    flags = WORKLOADS[workload] + (TINY_FLAGS if tiny else ())
    if single:
        seconds = 0
    repeats, min_runs = (1, 1) if single else (SETUP_REPEATS, MIN_RUNS)
    if workload == "serve-argmax":
        return serve(flags, seed, seconds, repeats, work_dir)
    return lifelong(flags, seed, seconds, repeats, min_runs, work_dir)
