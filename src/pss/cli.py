"""Command line entry points.

Verbs: ``train`` runs a lifelong stream and writes its report as JSON
and CSV, ``eval`` re-scores a saved model, ``inspect`` dumps a model's
structure, and ``gradcheck`` verifies the backprop implementation
numerically at fixed settings (it takes no flags).

Each ``train`` and ``eval`` flag sets the ``TrainerConfig`` or
``RunConfig`` field its ``dest`` names; an absent flag sets nothing, so
the field keeps the default its dataclass declares, and ``--help``
shows that default.

Exit codes: 0 success, 2 bad configuration (sizes too large to allocate
and unusable output paths too), 3 data problems (missing, malformed or
refused files), 4 numerical failures.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .container import ContainerError
from .data import (
    DATA_DIR_ENV,
    N_CLASSES,
    DataFormatError,
    build_task_stream,
    load_mnist,
    make_variation,
    synthetic_digits,
)
from .evaluation import export
from .model_io import load_model, save_model
from .numerics import NonFiniteError, gradcheck
from .plasticity import SPLIT_INITS
from .trainer import (
    PROBE_EPOCHS,
    PROBE_LOSS,
    SCOPE_CHOICES,
    TrainerConfig,
    evaluate_boundary,
    one_blas_thread,
    rng_for,
    run_baseline_finetune,
    run_lifelong,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PRESET_CHOICES = ("mnist", "mnist-variation", "synthetic")
TRAINER_DEFAULTS = {f.name: f.default for f in fields(TrainerConfig)}


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


def _check_out_dir(flag, path):
    """Refuse a directory that cannot be made or written: the path, or the
    last part of it that exists, is not a directory, or not a writable one."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ValueError(f"{flag} {path}: {head} is not a writable directory")


def _parent_dir(path):
    return os.path.dirname(os.path.abspath(path))


@dataclass
class RunConfig:
    """Everything a run needs, resolved from flags (``trainer``: train only)."""

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
        """Build the configs from the flags given, matched by field name."""
        given = vars(args)
        trainer = None
        if args.command == "train":
            trainer = TrainerConfig(**{k: v for k, v in given.items()
                                       if k in TRAINER_DEFAULTS}).validate()
        return cls(**{k: v for k, v in given.items() if k in RUN_DEFAULTS},
                   trainer=trainer).validate()

    def validate(self):
        """Reject stream flags no corpus can satisfy, a ``--baseline`` told to
        freeze, and output paths ``train`` cannot use, before any data is built."""
        if not 1 <= self.n_tasks <= N_CLASSES:
            raise ValueError(f"--tasks must be 1..{N_CLASSES}, one per digit class")
        for flag, value, least in (("--train-size", self.train_size, N_CLASSES),
                                   ("--test-size", self.test_size, N_CLASSES),
                                   ("--test-count", self.test_count, 1),
                                   ("--seed", self.seed, 0)):
            if value < least:
                raise ValueError(f"{flag} must be at least {least}")
        if self.per_task_train is not None and self.per_task_train < 2:
            raise ValueError("--per-task-train must be at least 2 "
                             "(one positive and one negative image)")
        if self.trainer is not None:
            if self.baseline and self.trainer.freeze_scope == "pss_only":
                raise ValueError("--baseline trains what --scope pss_only freezes")
            _check_out_dir("--out", self.out_dir)
            if self.model_path:
                if os.path.isdir(self.model_path):
                    raise ValueError(f"--save-model {self.model_path} is a directory")
                _check_out_dir("--save-model", _parent_dir(self.model_path))
        return self

    def load_corpus(self):
        if self.preset == "synthetic":
            train, test = synthetic_digits(self.train_size, self.test_size,
                                           seed=self.seed)
        else:
            train, test = load_mnist(self.data_dir)
        if self.preset == "mnist-variation":
            train = make_variation(train, rng_for(self.seed, 2, 0))
            test = make_variation(test, rng_for(self.seed, 2, 1))
        return train, test

    def build_stream(self):
        train, test = self.load_corpus()
        return build_task_stream(train, test, n_tasks=self.n_tasks,
                                 seed=self.seed,
                                 per_task_train=self.per_task_train,
                                 test_count=self.test_count)


RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _flag_text(value):
    """``value`` written the way its flag takes it: tuples comma-joined."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


class _FieldDefaultsFormatter(argparse.HelpFormatter):
    """Ends each flag's help with the default of the config field it sets."""

    def _get_help_string(self, action):
        for defaults in (TRAINER_DEFAULTS, RUN_DEFAULTS):
            if action.dest in defaults:
                return f"{action.help} (default: {_flag_text(defaults[action.dest])})"
        return action.help


def _add_stream_flags(p):
    p.add_argument("--preset", choices=PRESET_CHOICES,
                   help="data source (mnist presets need IDX files, see --data-dir)")
    p.add_argument("--data-dir",
                   help=f"directory with IDX files; if None, ${DATA_DIR_ENV}")
    p.add_argument("--seed", type=int, help="seed of the data and the run")
    p.add_argument("--tasks", type=int, dest="n_tasks",
                   help="number of tasks, one digit class each")
    p.add_argument("--test-count", type=int,
                   help="multiclass pool size, taken from the test set head")
    p.add_argument("--per-task-train", type=int,
                   help="cap on each task's training set size")
    p.add_argument("--train-size", type=int,
                   help="synthetic preset: training corpus size")
    p.add_argument("--test-size", type=int,
                   help="synthetic preset: test corpus size")


def _add_trainer_flags(p):
    p.add_argument("--hidden-sizes", type=_int_tuple, help="units per hidden layer")
    p.add_argument("--lr", type=float, dest="learning_rate", help="SGD learning rate")
    p.add_argument("--momentum", type=float, help="SGD momentum")
    p.add_argument("--batch-size", type=int, help="images per training step")
    p.add_argument("--epochs", type=int, dest="epochs_per_task", help="epochs per task")
    p.add_argument("--sigma", type=_scalar_or_tuple,
                   help="drift threshold, scalar or one value per hidden layer")
    p.add_argument("--delta", type=_scalar_or_tuple,
                   help="per-epoch threshold escalation")
    p.add_argument("--scope", choices=SCOPE_CHOICES, dest="freeze_scope",
                   help="which weights train; hybrid first probes each task from task 1 on: "
                        f"{PROBE_EPOCHS} epochs of the new output row alone on the frozen "
                        f"trunk, kept if the last epoch's loss is at most {PROBE_LOSS}, else "
                        "the task restarts with everything training until its first split")
    p.add_argument("--split-init", choices=SPLIT_INITS,
                   help="weights a split neuron's copy starts from")
    p.add_argument("--magnitude-freeze", type=float, dest="magnitude_freeze_threshold",
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
        os.makedirs(_parent_dir(cfg.model_path), exist_ok=True)
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
    cfg = RunConfig.from_args(args)
    net = load_model(args.model)
    stream = cfg.build_stream()
    if net.n_features != stream.pool_x.shape[1]:
        raise DataFormatError(f"model takes {net.n_features} input features, "
                              f"the data has {stream.pool_x.shape[1]}")
    if net.n_outputs == 0:
        raise DataFormatError("model has no trained tasks to evaluate")
    upto = min(net.n_outputs, len(stream.tasks))
    accs, mc = evaluate_boundary(net, stream, upto - 1)
    result = {
        "binary_accuracy": accs,
        "average_accuracy": float(np.mean(accs)),
        "multiclass_accuracy": mc,
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
    """Compare backprop to finite differences on seeds 0-4 of a 10-8-6-4
    network whose weights are each structurally zero and each frozen
    with probability 0.3."""
    tolerance, seeds = 1e-5, 5
    worst = 0.0
    failed = 0
    for seed in range(seeds):
        report = gradcheck((10, 8, 6, 4), seed=seed, zero_prob=0.3, freeze_prob=0.3,
                           tolerance=tolerance)
        worst = max(worst, report.max_rel_error)
        status = "ok" if report.passed else "FAIL"
        print(f"seed {seed}: max rel error {report.max_rel_error:.3e} "
              f"({report.checked} checked, {report.frozen_checked} frozen) {status}")
        if not report.passed:
            failed += 1
    print(f"worst over {seeds} seeds: {worst:.3e} (tolerance {tolerance:.1e})")
    return EXIT_NUMERIC if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pss",
        description="Lifelong learning via drift-triggered neuron splitting")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a lifelong task stream",
                       argument_default=argparse.SUPPRESS,
                       formatter_class=_FieldDefaultsFormatter)
    _add_stream_flags(p)
    _add_trainer_flags(p)
    p.add_argument("--out", dest="out_dir", help="report directory")
    p.add_argument("--baseline", action="store_true",
                   help="disable splitting and freezing (fine-tune baseline)")
    p.add_argument("--save-model", dest="model_path", help="write the model here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a task stream",
                       argument_default=argparse.SUPPRESS,
                       formatter_class=_FieldDefaultsFormatter)
    p.add_argument("--model", required=True)
    _add_stream_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print a saved model's structure")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="compare backprop to finite differences")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    # overflow surfaces as a NonFiniteError from the explicit finiteness
    # checks, so numpy's own warning would only repeat it on stderr
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        try:
            return args.func(args)
        except (DataFormatError, ContainerError, OSError) as e:  # OSError: any refused file
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        except NonFiniteError as e:
            print(f"numerical error: {e}", file=sys.stderr)
            return EXIT_NUMERIC
        except (ValueError, MemoryError) as e:  # a size flag may ask for too much memory
            print(f"configuration error: {str(e) or 'out of memory'}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
