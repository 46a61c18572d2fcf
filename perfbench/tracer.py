"""Per-layer tracing of the ``pss`` modules from outside the package.

Nothing in ``src/pss`` is edited. ``install`` replaces each traced
function with a timing wrapper in every ``pss`` module that holds a
reference to it, because modules import functions by name
(``trainer`` binds ``sgd_step``, ``plasticity`` binds ``forward``) and
patching the defining module alone would record nothing. Methods are
patched on their class. The wrappers stay installed for the life of the
process, so a traced pass must run in a process of its own.

A span is one call: name, start, end and the span that was open when it
started. Self time is a span's duration minus the time its child spans
cover. Spans are kept in memory and written out by ``write_spans`` when
the pass ends.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Functions timed as spans: (module, qualified name, split by freeze scope).
# Calls made while a task trains are also counted under
# ``<name>.<scope>`` for the scope the network is in at call time.
TIMED = (
    ("data", "synthetic_digits", False),
    ("data", "build_task_stream", False),
    ("numerics", "forward", True),
    ("numerics", "backward_truncated", True),
    ("numerics", "sgd_step", True),
    ("numerics", "MaskedLayer.validate", False),
    ("numerics", "selected_bce", False),
    ("numerics", "pad_velocity", False),
    ("plasticity", "PlasticNetwork.blocks", False),
    ("plasticity", "PlasticNetwork.splitting_round", False),
    ("plasticity", "PlasticNetwork.set_structural_freeze", False),
    ("plasticity", "PlasticNetwork.grow_output", False),
    ("plasticity", "PlasticNetwork.check_masks", False),
    ("trainer", "run_lifelong", False),
    ("trainer", "train_task", False),
    ("trainer", "evaluate_boundary", False),
    ("evaluation", "task_accuracy", False),
    ("evaluation", "multiclass_accuracy", False),
    ("evaluation", "export", False),
    ("model_io", "save_model", False),
    ("model_io", "load_model", False),
    ("container", "write_container", False),
    ("container", "read_container", False),
)
SCOPES = ("full_truncated", "pss_only")


def span_name(module, qualname):
    """Metric prefix of a traced function: ``PlasticNetwork`` methods are
    reported under their module, as ``plasticity.<method>``."""
    return f"{module}.{qualname.replace('PlasticNetwork.', '')}"


def timed_names():
    """Every span name, with its per-scope variants where they apply."""
    names = []
    for module, qualname, scoped in TIMED:
        name = span_name(module, qualname)
        names.append(name)
        if scoped:
            names.extend(f"{name}.{s}" for s in SCOPES)
    return names


# Counts and ratios measured at layer boundaries, with their units.
COUNTED = (
    ("numerics.forward.block_matmuls", "count"),
    ("numerics.forward.zero_block_share", "fraction"),
    ("plasticity.splits", "count"),
    ("plasticity.fillers", "count"),
    ("plasticity.split_yield", "fraction"),
    ("plasticity.trainable_weight_share", "fraction"),
    ("trainer.steps", "count"),
    ("trainer.pss_only_step_share", "fraction"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
)


def _ratio(num, den):
    return float(num) / den if den else 0.0


def _block_counts(net, blocks):
    """Block matmuls of one forward pass, and how many multiply all-zero
    weight blocks, for the partition ``blocks`` returns."""
    total = zero = 0
    for layer, (rows, cols) in zip(net.layers, blocks):
        for r0, r1 in rows:
            for c0, c1 in cols:
                total += 1
                zero += not layer.weights[r0:r1, c0:c1].any()
    return total, zero


def _trainable_share(layers):
    """Trainable over structurally present weights, biases excluded."""
    trainable = sum(float(l.train_mask.sum()) for l in layers)
    present = sum(float(l.conn_mask.sum()) for l in layers)
    return _ratio(trainable, present)


class Tracer:
    """Span recorder plus the counters measured at layer boundaries."""

    def __init__(self):
        self.spans = []           # (id, parent id or -1, name, start, end)
        self._open = []           # [id, start, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.net = None           # network of the task now training
        self._share = None        # trainable share, None once masks change
        self._share_sum = 0.0
        self._step_start = None
        self.step_s = []
        self.steps = defaultdict(int)
        self.splits = self.fillers = self.eligible = 0
        self.blocks = (0, 0)
        self._originals = {}

    # -- spans ---------------------------------------------------------------

    def _scope(self):
        return getattr(self.net, "freeze_scope", None)

    def wrap(self, name, fn, scoped, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = before(args) if before else None
            scope = tracer._scope() if scoped else None
            tracer._open.append([len(tracer.spans) + len(tracer._open),
                                 time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, scope)
            if after:
                after(args, result, ctx)
            return result
        return traced

    def _close(self, name, scope):
        end = time.perf_counter()
        span_id, start, covered = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name,
                           start, end))
        self.total_s[name] += duration
        for key in (name, f"{name}.{scope}") if scope else (name,):
            self.calls[key] += 1
            self.self_s[key] += duration - covered

    # -- boundary hooks ------------------------------------------------------

    def _train_task_before(self, args):
        self.net = args[0]
        self._share = None

    def _train_task_after(self, args, result, ctx):
        self.net = None

    def _masks_changed(self, args, result=None, ctx=None):
        self._share = None

    def _step_begin(self, args):
        if self.net is not None:
            self._step_start = time.perf_counter()

    def _step_before(self, args):
        if self.net is None:
            return None
        if self._share is None:
            try:
                self._share = _trainable_share(args[0])
            except AttributeError:  # the network keeps no dense masks
                self._share = 0.0
        return self._scope()

    def _step_end(self, args, result, scope):
        if self.net is None:
            return
        if self._step_start is not None:
            self.step_s.append(time.perf_counter() - self._step_start)
            self._step_start = None
        self.steps[scope] += 1
        self._share_sum += self._share

    def _round_before(self, args):
        net = args[0]
        try:
            self.eligible += sum(
                w.shape[0] - len(done) for w, done in
                zip(net.snapshot.weights, net._split_done))
        except AttributeError:
            pass

    def _round_after(self, args, report, ctx):
        self.splits += report.total_splits
        self.fillers += report.total_fillers
        self._share = None

    def _boundary_after(self, args, result, ctx):
        net = args[0]
        blocks_of = self._originals.get("PlasticNetwork.blocks")
        if blocks_of is not None:
            self.blocks = _block_counts(net, blocks_of(net))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every function in ``TIMED`` wherever ``pss`` looks it up.

        A function the program no longer has is skipped and reports zero
        calls, so the benchmark keeps running while the program changes.
        """
        hooks = {
            "trainer.train_task": (self._train_task_before,
                                   self._train_task_after),
            "numerics.sgd_step": (self._step_before, self._step_end),
            "plasticity.splitting_round": (self._round_before,
                                           self._round_after),
            "plasticity.set_structural_freeze": (None, self._masks_changed),
            "plasticity.grow_output": (None, self._masks_changed),
            "trainer.evaluate_boundary": (None, self._boundary_after),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pss" or n.startswith("pss.")]
        plasticity = importlib.import_module("pss.plasticity")
        net_cls = getattr(plasticity, "PlasticNetwork", None)
        # Not a span: marks where a training step starts.
        for attr, before, after in (
                ("trace", self._step_begin, None),
                ("freeze_small_weights", None, self._masks_changed)):
            fn = getattr(net_cls, attr, None)
            if fn is not None:
                setattr(net_cls, attr, self._hook(fn, before, after))
        for module_name, qualname, scoped in TIMED:
            owner = importlib.import_module(f"pss.{module_name}")
            *path, leaf = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            self._originals[qualname] = fn
            name = span_name(module_name, qualname)
            before, after = hooks.get(name, (None, None))
            traced = self.wrap(name, fn, scoped, before, after)
            if path:
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

    @staticmethod
    def _hook(fn, before, after):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            ctx = before(args) if before else None
            result = fn(*args, **kwargs)
            if after:
                after(args, result, ctx)
            return result
        return hooked

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for name in timed_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        # Training wall time, the base of every training share.
        out["trainer.run_lifelong.total_s"] = (
            self.total_s["trainer.run_lifelong"], "s")
        steps = sum(self.steps.values())
        step_ms = np.asarray(self.step_s) * 1e3
        total, zero = self.blocks
        counted = {
            "numerics.forward.block_matmuls": total,
            "numerics.forward.zero_block_share": _ratio(zero, total),
            "plasticity.splits": self.splits,
            "plasticity.fillers": self.fillers,
            "plasticity.split_yield": _ratio(self.splits, self.eligible),
            "plasticity.trainable_weight_share": _ratio(self._share_sum, steps),
            "trainer.steps": steps,
            "trainer.pss_only_step_share": _ratio(self.steps["pss_only"], steps),
            "trainer.step_ms_p50": float(np.percentile(step_ms, 50))
            if self.step_s else 0.0,
            "trainer.step_ms_p99": float(np.percentile(step_ms, 99))
            if self.step_s else 0.0,
        }
        for name, unit in COUNTED:
            out[name] = (counted[name], unit)
        return out

    def self_time_total(self):
        """Self time summed over spans, scope variants not counted twice."""
        return sum(self.self_s[span_name(m, q)] for m, q, _ in TIMED)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent,
                                    "name": name, "start": start,
                                    "end": end}) + "\n")
