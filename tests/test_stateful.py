"""Random task lifecycles against the dense reference: a stateful property test.

A hypothesis state machine drives ``TaskRun`` itself through random
sequences of its rules: open the next task under a drawn scope, split
initialisation and thresholds, with or without a magnitude freeze; take
one to three steps on drawn batches; end an epoch, with every eligible
drift kept away from its threshold; close a task after an epoch; and,
between tasks, save and load the model and predict on
``2 * BLOCK_ROWS + 1`` rows. It keeps what the engine should
hold, derived from ``test_dense_oracle``'s reference: the parameters
(each step's by the reference's dense arithmetic, a round's by the
revert and copy rules, and only the entries a generator draws from the
engine), the whole-layer reference velocity, the task's snapshot, and
whether a round can run.

Every step goes through ``test_dense_oracle.check_step``, which
compares the step with the reference: activations, gradients,
parameters and velocity, the frozen rows, the cache and the earlier
heads. After every rule the state machine also checks that the
parameters, the logits of a few images and the velocity agree with the
reference to 1e-12 relative, by the rules of that check, and that every
velocity, and the spare it keeps (where a step writes its gradient),
has the shape of the layer's rows from ``train_from`` on, and
``check_masks()`` finds nothing. A round must split exactly the
neurons whose reference drift exceeds the threshold of its epoch. The
last task is never closed, so no example ends with nothing left to
train. The machine runs 40 examples from one fixed seed.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from test_dense_oracle import (
    N_FEATURES,
    assert_close,
    assert_within,
    check_step,
    oracle_forward,
    tasks,
    velocity_after_split,
)

from pss.model_io import load_model, save_model
from pss.numerics import BLOCK_ROWS
from pss.plasticity import SPLIT_INITS, PlasticNetwork
from pss.trainer import SCOPE_CHOICES, TaskRun, TrainerConfig, rng_for

N_TASKS = 3
DATA = tasks(N_TASKS)
PROBE = np.random.default_rng(4).standard_normal((2 * BLOCK_ROWS + 1, N_FEATURES))
FEW = PROBE[:5]
TIE = 1e-9  # an eligible drift this close to its threshold, relatively, is a tie


def params_of(net):
    return [(l.weights.copy(), l.bias.copy()) for l in net.layers]


# A fixed seed, not ``derandomize``, which seeds from this class's source:
# an edit that changes no behaviour would change the examples drawn.
@seed(0)
class TaskLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        self.run = None
        self.params = params_of(self.net)  # what the engine's parameters should be
        self.velocity = None  # the reference's whole-layer velocity of the open task
        self.rounds = False  # whether ``end_epoch`` runs a splitting round

    @precondition(lambda self: self.run is None and self.net.task + 1 < N_TASKS)
    @rule(scope=st.sampled_from(SCOPE_CHOICES), freeze=st.sampled_from([0.0, 0.3]),
          split_init=st.sampled_from(SPLIT_INITS), sigma=st.sampled_from([1e-6, 0.05]),
          delta=st.sampled_from([0.0, 0.01]))
    def open_next_task(self, scope, freeze, split_init, sigma, delta):
        t = self.net.task + 1
        config = TrainerConfig(hidden_sizes=(12, 8), sigma=sigma, delta=delta, batch_size=8,
                               seed=5, freeze_scope=scope, split_init=split_init,
                               magnitude_freeze_threshold=freeze)
        self.run = TaskRun(self.net, DATA[t], config)
        # the new output row is drawn from the engine's generator, with a zero bias
        out, (w, b) = self.net.output_layer, self.params[-1]
        assert out.bias[-1] == 0.0
        self.params[-1] = (np.vstack([w, out.weights[-1:]]), np.append(b, 0.0))
        self.velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias))
                         for l in self.net.layers]
        self.velocity_scales = [0.0] * len(self.net.layers)  # see check_step
        self.snapshot = params_of(self.net)[:-1]
        self.split_done = [set() for _ in self.snapshot]
        self.rounds = t > 0 and scope != "pss_only"

    @precondition(lambda self: self.run is not None)
    @rule(batches=st.lists(st.lists(st.integers(0, len(DATA[0]) - 1), min_size=1,
                                    max_size=8, unique=True), min_size=1, max_size=3))
    def steps(self, batches):
        for batch in batches:
            self.step(np.array(batch))

    def step(self, idx):
        self.params, self.velocity, self.velocity_scales = check_step(
            self.run, idx, self.velocity, self.velocity_scales)

    @precondition(lambda self: self.run is not None)
    @rule()
    def end_epoch(self):
        net, run = self.net, self.run
        config, epoch = run.config, run.epoch
        threshold = config.sigma + epoch * config.delta
        eligible = []
        if self.rounds:
            for l, ((sw, sb), layer) in enumerate(zip(self.snapshot, net.hidden_layers)):
                m, k = sw.shape
                drift = np.sum((layer.weights[:m, :k] - sw) ** 2, axis=1) \
                    + (layer.bias[:m] - sb) ** 2
                eligible += [(l, i, drift[i]) for i in range(m) if i not in self.split_done[l]]
            assume(all(abs(d - threshold) > TIE * threshold for _, _, d in eligible))
        splits = [(l, i, d) for l, i, d in eligible if d > threshold]
        before = self.params
        report = run.end_epoch()
        if not self.rounds:
            assert report is None
            return
        assert report.epoch == epoch and report.thresholds == [threshold] * 2
        assert [(s.layer, s.index) for s in report.splits] == [(l, i) for l, i, _ in splits]
        assert_close(np.array(report.drifts), np.array([d for _, _, d in splits]))
        if not splits:
            return
        # old entries as they were, new rows and columns from the engine's
        # generator; each original back at its snapshot; each copy, over the
        # columns there were before the round, at the original's row then
        # (drifted) or at its snapshot row (reverted)
        after = []
        for layer, (w, b) in zip(net.layers, before):
            grown_w, grown_b = layer.weights.copy(), layer.bias.copy()
            grown_w[:w.shape[0], :w.shape[1]], grown_b[:len(b)] = w, b
            after.append((grown_w, grown_b))
        for old, new in zip(report.splits, report.new_neurons):
            (w, b), (sw, sb), (pw, pb) = after[old.layer], self.snapshot[old.layer], \
                before[old.layer]
            if config.split_init == "drifted":
                w[new.index, :pw.shape[1]], b[new.index] = pw[old.index], pb[old.index]
            else:
                w[new.index, :pw.shape[1]] = 0.0
                w[new.index, :sw.shape[1]], b[new.index] = sw[old.index], sb[old.index]
            w[old.index] = 0.0
            w[old.index, :sw.shape[1]], b[old.index] = sw[old.index], sb[old.index]
            self.split_done[old.layer].add(old.index)
        self.params = after
        self.velocity = [(v.copy(), b.copy()) for v, b in
                         velocity_after_split(net, self.velocity, report)]
        if config.freeze_scope == "hybrid":
            assert net.freeze_scope == "pss_only"
            self.rounds = False

    @precondition(lambda self: self.run is not None and self.run.epoch >= 1
                  and self.net.task + 1 < N_TASKS)  # the last task stays open
    @rule()
    def close(self):
        self.run.close()
        self.run = None

    @precondition(lambda self: self.run is None and self.net.task >= 0)
    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "model.bin")
            save_model(path, self.net)
            loaded = load_model(path)
        for a, b in zip(loaded.layers, self.net.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        assert (loaded.hidden_gens, loaded.task, loaded.freeze_scope) == \
            (self.net.hidden_gens, self.net.task, self.net.freeze_scope)
        assert loaded.predict(FEW).tobytes() == self.net.predict(FEW).tobytes()
        self.net = loaded

    @precondition(lambda self: self.run is None and self.net.task >= 0)
    @rule()
    def predict(self):
        assert_close(self.net.predict(PROBE), oracle_forward(self.net, PROBE)[1][-1])

    @invariant()
    def agrees_with_the_reference(self):
        net = self.net
        assert net.check_masks() == []
        for layer, (w, b) in zip(net.layers, self.params):
            scale = max(np.max(np.abs(w), initial=0.0), np.max(np.abs(b), initial=0.0))
            assert_within(layer.weights, w, scale)
            assert_within(layer.bias, b, scale)
        if net.task >= 0:
            assert_close(net.predict(FEW), oracle_forward(net, FEW)[1][-1])
        if self.run is None:
            return
        for layer, v, (v_w, v_b), scale in zip(
                net.layers, self.run.velocity, self.velocity, self.velocity_scales):
            o = layer.train_from
            assert (v.weights.shape, v.bias.shape) == \
                (layer.weights[o:].shape, layer.bias[o:].shape)
            if v.spare is not None:
                assert [a.shape for a in v.spare] == [v.weights.shape, v.bias.shape] * 2
            assert_within(v.weights, v_w[o:], scale)
            assert_within(v.bias, v_b[o:], scale)


TaskLifecycle.TestCase.settings = settings(
    database=None, deadline=None, max_examples=40,
    stateful_step_count=60)
test_task_lifecycle = TaskLifecycle.TestCase
