"""Command line entry points.

Verbs: ``train`` runs a lifelong stream and exports a report, ``eval``
re-scores a saved model, ``inspect`` dumps a model's structure,
``gradcheck`` verifies the backprop implementation numerically, and
``export-metrics`` turns a saved JSON report into CSV.

Exit codes: 0 success, 2 bad configuration, 3 data problems
(missing or malformed files), 4 numerical failures.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .container import ContainerError
from .data import (
    DATA_DIR_ENV,
    DataFormatError,
    build_task_stream,
    load_mnist,
    make_variation,
    synthetic_digits,
)
from .evaluation import RunReport, export, multiclass_accuracy, task_accuracy
from .model_io import load_model, save_model
from .numerics import NonFiniteError, gradcheck
from .trainer import (
    SCOPE_CHOICES,
    TrainerConfig,
    run_baseline_finetune,
    run_lifelong,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PRESET_CHOICES = ("mnist", "mnist-variation", "synthetic")


def _scalar_or_tuple(text):
    """Parse '0.3' or '0.3,0.25' into a float or tuple of floats."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}")
    return parts[0] if len(parts) == 1 else tuple(parts)


def _int_tuple(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int list: {text!r}")


@dataclass
class RunConfig:
    """Everything a training or evaluation run needs, resolved from flags."""

    preset: str = "synthetic"
    data_dir: str = None
    out_dir: str = "runs/latest"
    seed: int = 0
    n_tasks: int = 10
    test_count: int = 2000
    per_task_train: int = None
    train_size: int = 2000
    test_size: int = 1000
    baseline: bool = False
    model_path: str = None
    trainer: TrainerConfig = None

    @classmethod
    def from_args(cls, args):
        trainer = TrainerConfig(
            hidden_sizes=args.hidden_sizes,
            learning_rate=args.lr,
            momentum=args.momentum,
            batch_size=args.batch_size,
            epochs_per_task=args.epochs,
            sigma=args.sigma,
            delta=args.delta,
            freeze_scope=args.scope,
            split_init=args.split_init,
            magnitude_freeze_threshold=args.magnitude_freeze,
            seed=args.seed,
        ).validate()
        return cls(preset=args.preset, data_dir=args.data_dir,
                   out_dir=getattr(args, "out", "runs/latest"),
                   seed=args.seed, n_tasks=args.tasks,
                   test_count=args.test_count,
                   per_task_train=args.per_task_train,
                   train_size=args.train_size, test_size=args.test_size,
                   baseline=getattr(args, "baseline", False),
                   model_path=getattr(args, "save_model", None),
                   trainer=trainer)

    def load_corpus(self):
        if self.preset == "synthetic":
            train, test = synthetic_digits(self.train_size, self.test_size,
                                           seed=self.seed)
        else:
            train, test = load_mnist(self.data_dir)
        if self.preset == "mnist-variation":
            noise = np.random.SeedSequence(entropy=self.seed, spawn_key=(2,))
            train_noise, test_noise = noise.spawn(2)
            train = make_variation(train, train_noise)
            test = make_variation(test, test_noise)
        return train, test

    def build_stream(self):
        train, test = self.load_corpus()
        return build_task_stream(train, test, n_tasks=self.n_tasks,
                                 seed=self.seed,
                                 per_task_train=self.per_task_train,
                                 test_count=self.test_count)


def _add_stream_flags(p):
    p.add_argument("--preset", choices=PRESET_CHOICES, default="synthetic",
                   help="data source (mnist presets need IDX files, see --data-dir)")
    p.add_argument("--data-dir", default=None,
                   help=f"directory with IDX files (default: ${DATA_DIR_ENV})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=10)
    p.add_argument("--test-count", type=int, default=2000,
                   help="multiclass pool size, taken from the test set head")
    p.add_argument("--per-task-train", type=int, default=None,
                   help="cap on each task's training set size")
    p.add_argument("--train-size", type=int, default=2000,
                   help="synthetic preset: training corpus size")
    p.add_argument("--test-size", type=int, default=1000,
                   help="synthetic preset: test corpus size")


def _add_trainer_flags(p):
    p.add_argument("--hidden-sizes", type=_int_tuple, default=(312, 128))
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--sigma", type=_scalar_or_tuple, default=(0.3, 0.25),
                   help="drift threshold, scalar or one value per hidden layer")
    p.add_argument("--delta", type=_scalar_or_tuple, default=(0.0015, 0.25),
                   help="per-epoch threshold escalation")
    p.add_argument("--scope", choices=SCOPE_CHOICES, default="hybrid")
    p.add_argument("--split-init", choices=("drifted", "reverted"),
                   default="drifted")
    p.add_argument("--magnitude-freeze", type=float, default=0.0,
                   help="freeze weights below this magnitude at task start")


def cmd_train(args):
    cfg = RunConfig.from_args(args)
    stream = cfg.build_stream()
    if cfg.baseline:
        net, report = run_baseline_finetune(stream, cfg.trainer)
    else:
        net, report = run_lifelong(stream, cfg.trainer)
    json_path, csv_path = export(report, cfg.out_dir)
    if cfg.model_path:
        save_model(cfg.model_path, net)
        print(f"model: {cfg.model_path}")
    print(f"report: {json_path}")
    print(f"report: {csv_path}")
    print(f"final average accuracy: {report.final_average_accuracy():.4f}")
    print(f"mean forgetting: {report.mean_forgetting():.4f}")
    print(f"hidden sizes: {report.hidden_sizes[-1]}")
    print(f"splits per task: {report.split_counts}")
    return EXIT_OK


def cmd_eval(args):
    net = load_model(args.model)
    cfg = RunConfig.from_args(args)
    stream = cfg.build_stream()
    if net.n_outputs == 0:
        raise DataFormatError("model has no trained tasks to evaluate")
    upto = min(net.n_outputs, len(stream.tasks))
    accs = [task_accuracy(net, stream.tasks[j].test, j) for j in range(upto)]
    result = {
        "binary_accuracy": accs,
        "average_accuracy": float(np.mean(accs)),
        "multiclass_accuracy": multiclass_accuracy(net, stream.pool_x,
                                                   stream.pool_y),
    }
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_inspect(args):
    net = load_model(args.model)  # audits the structure or raises
    gen_counts = [{str(g): gens.count(g) for g in set(gens)}
                  for gens in net.hidden_gens]
    info = {
        "task": net.task,
        "hidden_sizes": net.hidden_sizes(),
        "outputs": net.n_outputs,
        "parameter_count": net.parameter_count(),
        "freeze_scope": net.freeze_scope,
        "generation_counts": gen_counts,
    }
    print(json.dumps(info, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_gradcheck(args):
    worst = 0.0
    failed = 0
    for seed in range(args.seeds):
        report = gradcheck(args.dims, seed=seed, zero_prob=args.zero_prob,
                           freeze_prob=args.freeze_prob,
                           tolerance=args.tolerance)
        worst = max(worst, report.max_rel_error)
        status = "ok" if report.passed else "FAIL"
        print(f"seed {seed}: max rel error {report.max_rel_error:.3e} "
              f"({report.checked} checked, {report.frozen_checked} frozen) {status}")
        if not report.passed:
            failed += 1
    print(f"worst over {args.seeds} seeds: {worst:.3e} "
          f"(tolerance {args.tolerance:.1e})")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_export_metrics(args):
    try:
        with open(args.report, "r", encoding="utf-8") as f:
            report = RunReport.from_dict(json.load(f))
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise DataFormatError(f"{args.report}: not a run report: {e}") from e
    out_dir = args.out or os.path.dirname(os.path.abspath(args.report))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(report.to_csv())
    print(f"report: {csv_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pss",
        description="Lifelong learning via drift-triggered neuron splitting")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a lifelong task stream")
    _add_stream_flags(p)
    _add_trainer_flags(p)
    p.add_argument("--out", default="runs/latest", help="report directory")
    p.add_argument("--baseline", action="store_true",
                   help="disable splitting and freezing (fine-tune baseline)")
    p.add_argument("--save-model", default=None, help="write the model here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a task stream")
    p.add_argument("--model", required=True)
    _add_stream_flags(p)
    _add_trainer_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print a saved model's structure")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="compare backprop to finite differences")
    p.add_argument("--dims", type=_int_tuple, default=(10, 8, 6, 4))
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--zero-prob", type=float, default=0.3)
    p.add_argument("--freeze-prob", type=float, default=0.3)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-metrics", help="render a JSON report as CSV")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_export_metrics)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DataFormatError, ContainerError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
