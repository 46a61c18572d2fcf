"""Run the named mutants of the engine and check that tests kill them.

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
    # the training step: ``pad_velocity`` and ``sgd_step``
    Mutant("pad-velocity-keeps-reset-rows", "src/pss/numerics.py",
           "        new.weights[rows] = new.bias[rows] = 0.0\n",
           "        pass\n",
           ("tests/test_numerics.py::TestSgdStep::test_pad_velocity_shapes_the_trainable_rows",
            "tests/test_trainer.py::TestVelocityRule")),
    Mutant("pad-velocity-zeros-every-row-then-slices", "src/pss/numerics.py",
           "np.zeros_like(l.weights[l.train_from:])",
           "np.zeros_like(l.weights)[l.train_from:]",
           ("tests/test_trainer.py::TestVelocityRule::test_the_switch_allocates_only_the_trainable_rows_velocity",)),
    Mutant("sgd-frozen-set-without-block-offset", "src/pss/numerics.py",
           "_zero_frozen(v_block, layer.frozen, o + r)",
           "_zero_frozen(v_block, layer.frozen, o)",
           ("tests/test_numerics.py::TestSgdStep::test_non_finite_update_changes_nothing",)),
    Mutant("sgd-frozen-set-not-zeroed", "src/pss/numerics.py",
           "            _zero_frozen(v_block, layer.frozen, o + r)\n",
           "",
           ("tests/test_numerics.py::TestSgdStep::test_frozen_weight_and_velocity_stay_zero",)),
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
    # the loss: one head, checked, and the gradient checker tries every head
    Mutant("head-index-unchecked", "src/pss/numerics.py",
           "    if not 0 <= head < out_dim:\n",
           "    if False:\n",
           ("tests/test_numerics.py::TestBackwardTruncated::test_rejects_a_head_that_is_not_an_output",)),
    Mutant("gradcheck-checks-the-first-head-only", "src/pss/numerics.py",
           "for head, y in enumerate(targets.T):",
           "for head, y in enumerate(targets.T[:1]):",
           ("tests/test_numerics.py::TestGradcheck::test_dense_net_passes",)),
    # backward: truncation at each run's prefix, the frozen set, the activations
    Mutant("backward-no-per-run-zeroing", "src/pss/numerics.py",
           "                d_w[max(r0, o) - o:r1 - o, c1:] = 0.0\n",
           "                pass\n",
           ("tests/test_numerics.py::TestBackwardTruncated::test_trainable_rows_zero_past_each_prefix",
            "tests/test_dense_oracle.py")),
    Mutant("backward-run-zeroing-without-the-row-offset", "src/pss/numerics.py",
           "d_w[max(r0, o) - o:r1 - o, c1:] = 0.0",
           "d_w[max(r0, o):r1 - o, c1:] = 0.0",
           ("tests/test_numerics.py::TestBackwardTruncated::test_trainable_rows_zero_past_each_prefix",)),
    Mutant("backward-frozen-set-not-zeroed", "src/pss/numerics.py",
           "        _zero_frozen(d_w, layer.frozen, o)\n",
           "",
           ("tests/test_numerics.py::TestBackwardTruncated::test_frozen_positions_get_exact_zero",
            "tests/test_dense_oracle.py")),
    Mutant("backward-derivative-of-the-leading-columns", "src/pss/numerics.py",
           "trace.post[i - 1][:, below.train_from:]",
           "trace.post[i - 1][:, :below.fan_out - below.train_from]",
           ("tests/test_numerics.py::TestBackwardTruncated::test_matches_finite_differences_on_masked_net",
            "tests/test_dense_oracle.py")),
    Mutant("leaky-derivative-one-at-zero", "src/pss/numerics.py",
           "np.maximum(a > 0, self.slope)",
           "np.maximum(a >= 0, self.slope)",
           ("tests/test_numerics.py::TestForward", "tests/test_dense_oracle.py")),
    # the structure: each run's column prefix ``c1`` and each layer's ``train_from``
    Mutant("c1-one-short", "src/pss/plasticity.py",
           "bisect_right(tags[i - 1], gens[r0])\n",
           "bisect_right(tags[i - 1], gens[r0]) - 1\n",
           ("tests/test_plasticity.py::TestDerivedStructure::test_one_run_per_generation_sees_its_prefix",
            "tests/test_dense_oracle.py")),
    Mutant("c1-one-over", "src/pss/plasticity.py",
           "bisect_right(tags[i - 1], gens[r0])\n",
           "bisect_right(tags[i - 1], gens[r0]) + 1\n",
           ("tests/test_plasticity.py::TestDerivedStructure::test_rebuild_from_tags_reproduces_masks_and_blocks",
            "tests/test_dense_oracle.py")),
    Mutant("c1-one-short-above-generation-0", "src/pss/plasticity.py",
           "bisect_right(tags[i - 1], gens[r0])\n",
           "bisect_right(tags[i - 1], gens[r0]) - (gens[r0] > 0)\n",
           ("tests/test_plasticity.py::TestDerivedStructure::test_one_run_per_generation_sees_its_prefix",
            "tests/test_pss_only_step.py::TestFrozenCache::test_cache_is_the_frozen_rows_of_a_full_forward")),
    Mutant("train-from-by-bisect-right", "src/pss/plasticity.py",
           "bisect_left(gens, self.task) if scope",
           "bisect_right(gens, self.task) if scope",
           ("tests/test_plasticity.py::TestFreezeScopes::test_pss_only_trains_current_generation_only",
            "tests/test_dense_oracle.py")),
    # the block pass and the frozen-row cache
    Mutant("row-blocks-without-the-remainder-block", "src/pss/numerics.py",
           "for a in range(0, last, BLOCK_ROWS)] + [slice(last, n)]",
           "for a in range(0, last, BLOCK_ROWS)]",
           ("tests/test_blockwise.py::test_blocks_tile_the_rows_the_last_taking_the_rest",
            "tests/test_numerics.py::TestForward")),
    Mutant("row-blocks-last-block-one-row-late", "src/pss/numerics.py",
           "+ [slice(last, n)]",
           "+ [slice(last + 1, n)]",
           ("tests/test_blockwise.py::test_predict_and_cache_are_forward_by_block_bitwise",
            "tests/test_numerics.py::TestForward")),
    Mutant("row-blocks-inner-blocks-one-row-short", "src/pss/numerics.py",
           "[slice(a, a + BLOCK_ROWS) for a",
           "[slice(a, a + BLOCK_ROWS - 1) for a",
           ("tests/test_blockwise.py::test_predict_and_cache_are_forward_by_block_bitwise",
            "tests/test_blockwise.py::test_old_logits_stay_bit_identical_on_a_multi_block_probe")),
    Mutant("frozen-row-cache-of-every-row", "src/pss/plasticity.py",
           "                                [l.train_from for l in self.layers],\n",
           "                                None,\n",
           ("tests/test_pss_only_step.py::TestFrozenCache::test_cache_is_the_frozen_rows_of_a_full_forward",
            "tests/test_dense_oracle.py")),
    Mutant("cache-keeps-every-layer", "src/pss/plasticity.py",
           "keep_from=max(self.first_trained() - 1, 0))",
           "keep_from=0)",
           ("tests/test_pss_only_step.py::TestFrozenCache::test_cache_keeps_no_layer_below_the_steps_input",
            "tests/test_dense_oracle.py")),
    # the step: it starts at the first layer that trains, from the cache
    Mutant("step-starts-one-layer-above-the-first-that-trains", "src/pss/plasticity.py",
           "return next((i for i, layer in enumerate(self.layers)",
           "return next((i + 1 for i, layer in enumerate(self.layers)",
           ("tests/test_pss_only_step.py::TestFrozenCache::test_cache_keeps_no_layer_below_the_steps_input",
            "tests/test_dense_oracle.py")),
    Mutant("step-reads-the-sorted-batchs-cache-rows", "src/pss/trainer.py",
           "[c[idx] for c in self.cache[k:]]",
           "[c[np.sort(idx)] for c in self.cache[k:]]",
           ("tests/test_dense_oracle.py",)),
    # ``MaskedLayer.affine`` and its run plan
    Mutant("affine-without-the-prefix-width-check", "src/pss/numerics.py",
           "                if c1 > width:\n",
           "                if False:\n",
           ("tests/test_numerics.py::TestMaskedLayer::test_row_stop_reads_only_the_columns_its_runs_see",)),
    Mutant("plan-kept-when-the-weights-are-rebound", "src/pss/numerics.py",
           'if name in ("weights", "runs"):',
           'if name == "runs":',
           ("tests/test_numerics.py::TestSgdStep::test_a_replaced_weights_array_is_freed",
            "tests/test_dense_oracle.py")),
    Mutant("plan-kept-when-the-runs-are-rebound", "src/pss/numerics.py",
           'if name in ("weights", "runs"):',
           'if name == "weights":',
           ("tests/test_numerics.py::TestMaskedLayer::test_affine_follows_rebound_runs_and_in_place_writes",)),
    Mutant("plan-deep-copied-with-the-layer", "src/pss/numerics.py",
           'return {**self.__dict__, "_plan": None}',
           "return self.__dict__",
           ("tests/test_blockwise.py::test_one_image_predict_is_the_run_by_run_loop_bitwise",)),
    Mutant("plan-holds-copies-of-the-weights", "src/pss/numerics.py",
           "self.weights[r0:r1, :c1].T, np.s_",
           "self.weights[r0:r1, :c1].T.copy(), np.s_",
           ("tests/test_numerics.py::TestMaskedLayer::test_affine_follows_rebound_runs_and_in_place_writes",
            "tests/test_dense_oracle.py")),
    # growth: ``_append_hidden``'s column draws and ``split_neurons``' copies
    Mutant("append-hidden-constant-std", "src/pss/plasticity.py",
           "std = np.sqrt(2.0 / (down.fan_in + np.arange(1, n + 1)))",
           "std = np.full(n, np.sqrt(2.0 / (down.fan_in + 1)))",
           ("tests/test_plasticity.py::TestOneEditPerLayer::test_round_matches_per_neuron_reference",)),
    Mutant("append-hidden-draws-in-unit-major-order", "src/pss/plasticity.py",
           "self.rng.normal(0.0, std[:, None], size=(n, int(live.sum()))).T",
           "self.rng.normal(0.0, std, size=(int(live.sum()), n))",
           ("tests/test_plasticity.py::TestOneEditPerLayer::test_round_matches_per_neuron_reference",)),
    Mutant("drifted-copy-takes-the-snapshot-bias", "src/pss/plasticity.py",
           "drifted = (layer.weights[indices], layer.bias[indices])",
           "drifted = (layer.weights[indices], snap_b[indices])",
           ("tests/test_plasticity.py::TestOneEditPerLayer::test_round_matches_per_neuron_reference",)),
    Mutant("reverted-copy-is-the-drifted-row", "src/pss/plasticity.py",
           'if split_init == "drifted" else None',
           "if True else None",
           ("tests/test_plasticity.py::TestSplitNeuron::test_reverted_init_copies_snapshot_instead",)),
    # ``semantic_drift``: one temporary, squared in place
    Mutant("drift-written-into-the-weights", "src/pss/plasticity.py",
           "diff = layer.weights[:m0, :k0] - snap_w",
           "diff = np.subtract(layer.weights[:m0, :k0], snap_w, out=layer.weights[:m0, :k0])",
           ("tests/test_plasticity.py::TestSplittingRound::test_each_neuron_splits_at_most_once_per_task",
            "tests/test_plasticity.py::TestSemanticDrift::test_leaves_weights_and_snapshot_as_they_were")),
    # the splitting round and what follows it
    Mutant("non-strict-drift-test", "src/pss/plasticity.py",
           "np.flatnonzero(drift > threshold)",
           "np.flatnonzero(drift >= threshold)",
           ("tests/test_plasticity.py::TestSplittingRound::test_strict_threshold_no_split_at_equality",)),
    Mutant("neuron-split-twice-in-one-task", "src/pss/plasticity.py",
           "        done.update(indices)\n",
           "",
           ("tests/test_plasticity.py::TestSplittingRound::test_each_neuron_splits_at_most_once_per_task",
            "tests/test_plasticity.py::TestSplitNeuron::test_split_preconditions")),
    Mutant("no-switch-to-pss-only-under-hybrid", "src/pss/trainer.py",
           '                net.set_structural_freeze("pss_only")\n',
           "                pass\n",
           ("tests/test_trainer.py::TestHybridScope::test_switches_to_frozen_after_first_split",
            "tests/test_dense_oracle.py")),
    Mutant("round-resets-no-velocity-rows", "src/pss/trainer.py",
           "self._fit_structure(round_report.splits)",
           "self._fit_structure()",
           ("tests/test_trainer.py::TestVelocityRule", "tests/test_dense_oracle.py")),
    # the snapshot: taken at task open only where a round can read it
    Mutant("snapshot-taken-in-task-0", "src/pss/trainer.py",
           "if task > 0 and config.splitting_enabled and",
           "if config.splitting_enabled and",
           ("tests/test_trainer.py::TestTaskOpening::test_a_snapshot_is_taken_only_where_a_round_can_read_it",
            "tests/test_trainer.py::TestBaseline::test_no_snapshot_is_held_where_no_round_can_read_it")),
    Mutant("snapshot-taken-with-splitting-off", "src/pss/trainer.py",
           "if task > 0 and config.splitting_enabled and",
           "if task > 0 and",
           ("tests/test_trainer.py::TestTaskOpening::test_a_snapshot_is_taken_only_where_a_round_can_read_it",
            "tests/test_trainer.py::TestBaseline")),
    Mutant("snapshot-kept-after-the-hybrid-switch", "src/pss/trainer.py",
           "                net.snapshot = None  # every snapshot row is frozen: none can split again\n",
           "",
           ("tests/test_trainer.py::TestHybridScope::test_one_round_splits_and_one_cache_is_built_per_task",)),
    # ``hybrid``'s probe: the bar, and the restart from the state at open
    Mutant("probe-bar-always-met", "src/pss/trainer.py",
           "if report.epoch_losses[-1] > PROBE_LOSS:",
           "if False:",
           ("tests/test_trainer.py::TestProbe::test_a_stream_whose_probes_fail_is_trained_as_without_a_probe",
            "tests/test_dense_oracle.py")),
    Mutant("probe-bar-never-met", "src/pss/trainer.py",
           "if report.epoch_losses[-1] > PROBE_LOSS:",
           "if True:",
           ("tests/test_dense_oracle.py::test_a_passed_and_a_failed_probe_match_the_dense_reference",
            "tests/test_trainer.py::TestProbe::test_a_stream_whose_probes_pass_is_trained_as_under_pss_only")),
    Mutant("probe-restart-keeps-probe-head", "src/pss/trainer.py",
           "                net.output_layer.weights[net.task], net.output_layer.bias[net.task] = head\n",
           "",
           ("tests/test_trainer.py::TestProbe::test_a_stream_whose_probes_fail_is_trained_as_without_a_probe",
            "tests/test_dense_oracle.py")),
    Mutant("close-keeps-the-snapshot", "src/pss/trainer.py",
           "        net.snapshot = None\n",
           "",
           ("tests/test_trainer.py::TestTaskOpening::test_a_tasks_snapshot_is_released_when_it_closes",)),
    # the boundary's carried pool activations
    Mutant("boundary-reuses-after-a-trunk-step", "src/pss/trainer.py",
           "        if self.carry and self.start < len(self.net.layers) - 1:\n",
           "        if False:\n",
           ("tests/test_trainer.py::TestBoundaryCarry",)),
    Mutant("boundary-carry-not-refreshed", "src/pss/trainer.py",
           "    if carry is not None:\n        carry[:] = hidden, logits\n",
           "    if carry == []:\n        carry[:] = hidden, logits\n",
           ("tests/test_trainer.py::TestBoundaryCarry",)),
    # the refusals of the scorers and of a malformed report
    Mutant("average-of-an-empty-row-unchecked", "src/pss/evaluation.py",
           "    if not row:\n",
           "    if False:\n",
           ("tests/test_evaluation.py::TestMatrixMetrics",)),
    Mutant("report-non-json-constants-accepted", "src/pss/evaluation.py",
           "    raise ValueError(f\"{name} is not a JSON number\")\n",
           "    return float(name)\n",
           ("tests/test_evaluation.py::TestRunReport::test_malformed_report_is_refused",)),
    Mutant("report-non-object-unchecked", "src/pss/evaluation.py",
           "        if not isinstance(d, dict):\n",
           "        if False:\n",
           ("tests/test_evaluation.py::TestRunReport::test_a_json_value_other_than_an_object_is_refused_as_such",)),
    Mutant("report-malformed-fields-accepted", "src/pss/evaluation.py",
           "        if bad:\n",
           "        if False:\n",
           ("tests/test_evaluation.py::TestRunReport::test_non_report_object_is_refused",)),
    Mutant("report-deep-nesting-not-a-value-error", "src/pss/evaluation.py",
           "        except RecursionError:\n",
           "        except ZeroDivisionError:\n",
           ("tests/test_evaluation.py::TestRunReport::test_malformed_report_is_refused",)),
    # the refusals of a hostile model file
    Mutant("container-header-claimed-past-the-file-unchecked", "src/pss/container.py",
           "        if header_len > remaining:\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles::test_a_header_claimed_past_the_end_of_the_file_is_never_read",)),
    Mutant("container-write-magic-length-unchecked", "src/pss/container.py",
           "    if len(magic) != 8:\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestWriteContainer::test_a_magic_of_other_than_8_bytes_is_refused",)),
    Mutant("container-write-dtype-unchecked", "src/pss/container.py",
           "        if arr.dtype.name != DTYPE:\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestWriteContainer::test_an_array_that_is_not_float64_is_refused",)),
    Mutant("container-claimed-array-size-unchecked", "src/pss/container.py",
           "            if size > remaining:\n",
           "            if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles::test_an_array_claimed_past_the_end_of_the_file_is_never_allocated",)),
    Mutant("container-magic-unchecked", "src/pss/container.py",
           "        if got != magic:\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestSaveLoad::test_wrong_magic_rejected",)),
    Mutant("container-short-header-length-unchecked", "src/pss/container.py",
           "        if len(raw_len) != 8:\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    Mutant("container-header-kinds-unchecked", "src/pss/container.py",
           "        if not isinstance(header, dict) or not isinstance(header.get(\"meta\"), dict) \\\n"
           "                or not isinstance(header.get(\"arrays\"), list):\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    Mutant("container-array-entry-unchecked", "src/pss/container.py",
           "    if not isinstance(entry, dict) or not isinstance(entry.get(\"name\"), str) \\\n"
           "            or entry.get(\"dtype\") != DTYPE \\\n"
           "            or not isinstance(entry.get(\"shape\"), list) \\\n"
           "            or not all(type(s) is int and s >= 0 for s in entry[\"shape\"]):\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    Mutant("container-array-named-twice-accepted", "src/pss/container.py",
           "            if name in arrays:\n",
           "            if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles::test_array_named_twice_is_data_error",)),
    Mutant("container-bytes-after-the-last-array-accepted", "src/pss/container.py",
           "        if remaining:\n",
           "        if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles::test_bytes_after_the_last_array_are_data_error",)),
    Mutant("model-schema-unchecked", "src/pss/model_io.py",
           "    if meta.get(\"schema\") != MODEL_SCHEMA:\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestSaveLoad::test_future_schema_rejected",)),
    Mutant("model-array-names-unchecked", "src/pss/model_io.py",
           "    if set(arrays) != set(names):\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    Mutant("model-structural-audit-ignored", "src/pss/model_io.py",
           "    if problems:\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    Mutant("model-header-unchecked-against-the-network", "src/pss/model_io.py",
           "    if json.dumps(meta, sort_keys=True) != json.dumps(header(net), sort_keys=True):\n",
           "    if False:\n",
           ("tests/test_model_io.py::TestHostileModelFiles", "tests/test_fuzz.py")),
    # the task stream and the boundary evaluation
    Mutant("task-rows-recorded-unshuffled", "src/pss/data.py",
           "TaskDataset(images, idx[order], y[order])",
           "TaskDataset(images, idx, y[order])",
           ("tests/test_data.py::TestTaskStream::test_test_sets_record_their_pool_rows",)),
    Mutant("boundary-scores-the-pool-head", "src/pss/trainer.py",
           "logits[task.test.rows, j]",
           "logits[:len(task.test.rows), j]",
           ("tests/test_trainer.py::TestEvaluateBoundary::test_one_pool_forward_equals_per_task_forwards",)),
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
