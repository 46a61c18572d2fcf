"""Unit tests for model serialization and boundary resume."""

import json
import struct

import numpy as np
import pytest

from pss.cli import EXIT_DATA, main
from pss.container import ContainerError, read_container, write_container
from pss.data import build_task_stream, synthetic_digits
from pss.model_io import MODEL_MAGIC, load_model, save_model
from pss.plasticity import PlasticNetwork
from pss.trainer import TrainerConfig, rng_for, train_task


def trained_net(seed=1):
    train, test = synthetic_digits(240, 120, seed=3)
    stream = build_task_stream(train, test, n_tasks=2, seed=3, test_count=120)
    cfg = TrainerConfig(hidden_sizes=(10, 6), sigma=1e-6, delta=0.0,
                        batch_size=32, epochs_per_task=2, seed=seed)
    net = PlasticNetwork.new(784, [10, 6], rng_for(seed, 0))
    for task in stream:
        train_task(net, task.train, cfg, task.index)
    return net, stream, cfg


def rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header of a saved container."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack(">Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen].decode())
    edit(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack(">Q", len(new_header)) + new_header
                     + blob[16 + hlen:])


def weight_at_structural_zero(path, layer):
    net = load_model(path)
    rows, cols = np.nonzero(net.layers[layer].conn_mask == 0.0)
    net.layers[layer].weights[rows[0], cols[0]] = 0.5
    save_model(path, net)


# Nonzero weights where the generation rule puts a structural zero.
STRUCTURAL_ZERO = {
    "weight at structural zero": 1,
    "old output sees newer neuron": 2,
}


def recast_array(path, name, dtype):
    """Rewrite array ``name`` of a saved model as small whole numbers of
    ``dtype``, a type the container allows but a model file must not hold."""
    meta, arrays = read_container(path, MODEL_MAGIC)
    arrays[name] = np.rint(np.abs(arrays[name]) * 10).astype(dtype)
    write_container(path, MODEL_MAGIC, meta, arrays)


# Arrays of a container dtype other than float64.
WRONG_DTYPE = {
    "int64 weights": ("w0", np.int64),
    "uint8 bias": ("b1", np.uint8),
}


def set_first(path, name, value):
    """Set the first entry of array ``name`` of a saved model to ``value``."""
    meta, arrays = read_container(path, MODEL_MAGIC)
    arrays[name].flat[0] = value
    write_container(path, MODEL_MAGIC, meta, arrays)


# Parameters no layer may hold.
NON_FINITE = {
    "NaN weight": ("w0", np.nan),
    "Inf bias": ("b1", np.inf),
}

# Files cut inside the header length, by their remaining byte count.
CUT = {f"cut to {n} bytes": n for n in (8, 12, 15)}


# Each edit turns a valid model file into one ``pss inspect`` must refuse.
HOSTILE = {
    "missing n_layers": lambda h: h["meta"].pop("n_layers"),
    "missing arrays": lambda h: h.pop("arrays"),
    "negative shape": lambda h: h["arrays"][0]["shape"].__setitem__(0, -1),
    "non-integer shape": lambda h: h["arrays"][0]["shape"].__setitem__(0, 2.5),
    "unknown freeze_scope": lambda h: h["meta"].__setitem__("freeze_scope", "all"),
    "string tag": lambda h: h["meta"]["hidden_gens"][0].__setitem__(0, "0"),
    "short tag list": lambda h: h["meta"]["hidden_gens"][0].pop(),
    "missing tag list": lambda h: h["meta"]["hidden_gens"].pop(),
    "tag newer than task": lambda h: h["meta"]["hidden_gens"][1].__setitem__(-1, 9),
    "task without output": lambda h: h["meta"].__setitem__("task", 5),
    "renamed array": lambda h: h["arrays"][0].__setitem__("name", "x0"),
    "fan-in mismatch": lambda h: next(
        a for a in h["arrays"] if a["name"] == "w1")["shape"].__setitem__(1, 3),
    "unknown activation": lambda h: h["meta"]["activations"][0].__setitem__(
        "kind", "tanh"),
    "schema 1": lambda h: h["meta"].__setitem__("schema", 1),
    "slope 2": lambda h: h["meta"]["activations"][0].__setitem__("slope", 2.0),
    "slope -1": lambda h: h["meta"]["activations"][0].__setitem__("slope", -1.0),
    "slope NaN": lambda h: h["meta"]["activations"][0].__setitem__("slope", float("nan")),
    # the header must be exactly the rebuilt network's, types included
    "identity hidden layer, slope 0.3": lambda h: h["meta"]["activations"][0].update(
        kind="identity", slope=0.3),
    "leaky output layer": lambda h: h["meta"]["activations"][-1].update(
        kind="leaky_relu", slope=0.01),
    "identity hidden layer": lambda h: h["meta"]["activations"][0].update(
        kind="identity", slope=1.0),
    "extra header key": lambda h: h["meta"].__setitem__("note", 1),
    "output tag 2.0": lambda h: h["meta"]["output_gens"].__setitem__(-1, 2.0),
    "output tag 1.0": lambda h: h["meta"]["output_gens"].__setitem__(-1, 1.0),
    "n_layers 3.0": lambda h: h["meta"].__setitem__("n_layers", 3.0),
    "task true": lambda h: h["meta"].__setitem__("task", True),
    "task 10**12": lambda h: h["meta"].__setitem__("task", 10**12),
    "slope true": lambda h: h["meta"]["activations"][0].__setitem__("slope", True),
}
# Cases the container reader itself must reject, before any model check.
CONTAINER_FAULTS = ("missing arrays", "negative shape", "non-integer shape", *CUT)
# What the refusal names, where one check alone refuses the file.
REASONS = {"NaN weight": "NaN/Inf", "Inf bias": "NaN/Inf",
           "renamed array": "expected arrays",
           **dict.fromkeys(CUT, "truncated container header length")}


class TestSaveLoad:
    def test_round_trip_is_bitwise(self, tmp_path):
        net, stream, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        back = load_model(path)
        probe = stream.pool_x[:40]
        assert back.predict(probe).tobytes() == net.predict(probe).tobytes()
        for a, b in zip(net.layers, back.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert np.array_equal(a.conn_mask, b.conn_mask)
            assert np.array_equal(a.train_mask, b.train_mask)
            assert a.train_from == b.train_from           # which biases train
            assert a.frozen is None and b.frozen is None
            assert a.activation == b.activation
        assert back.hidden_gens == net.hidden_gens
        assert back.output_gens == net.output_gens
        assert back.task == net.task
        assert back.freeze_scope == net.freeze_scope
        assert back.check_masks() == []

    def test_rng_state_travels(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        back = load_model(path)
        np.testing.assert_array_equal(net.rng.standard_normal(8),
                                      back.rng.standard_normal(8))

    def test_resume_at_boundary_matches_straight_run(self, tmp_path):
        train, test = synthetic_digits(240, 120, seed=3)
        stream = build_task_stream(train, test, n_tasks=3, seed=3,
                                   test_count=120)
        cfg = TrainerConfig(hidden_sizes=(10, 6), sigma=1e-6, delta=0.0,
                            batch_size=32, epochs_per_task=2, seed=2)

        straight = PlasticNetwork.new(784, [10, 6], rng_for(2, 0))
        for task in stream:
            train_task(straight, task.train, cfg, task.index)

        resumed = PlasticNetwork.new(784, [10, 6], rng_for(2, 0))
        train_task(resumed, stream.tasks[0].train, cfg, 0)
        path = tmp_path / "boundary.pssnet"
        save_model(path, resumed)
        resumed = load_model(path)
        train_task(resumed, stream.tasks[1].train, cfg, 1)
        train_task(resumed, stream.tasks[2].train, cfg, 2)

        for a, b in zip(straight.layers, resumed.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(ContainerError, match="magic"):
            load_model(path)

    def test_future_schema_rejected(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        rewrite_header(path, lambda h: h["meta"].__setitem__("schema", 99))
        with pytest.raises(ContainerError, match="schema"):
            load_model(path)

    def test_file_holds_weights_and_biases_only(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        meta, arrays = read_container(path, MODEL_MAGIC)
        assert meta["schema"] == 2
        assert sorted(arrays) == ["b0", "b1", "b2", "w0", "w1", "w2"]


class TestHostileModelFiles:
    def test_deeply_nested_header_is_data_error(self, tmp_path, capsys):
        header = b"[" * 100000 + b"]" * 100000
        path = tmp_path / "deep.pssnet"
        path.write_bytes(MODEL_MAGIC + struct.pack(">Q", len(header)) + header)
        assert main(["inspect", "--model", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        net, _, _ = trained_net()
        assert all((l.conn_mask == 0.0).any() for l in net.layers[1:])
        path = tmp_path_factory.mktemp("model") / "model.pssnet"
        save_model(path, net)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "case", sorted(HOSTILE) + sorted(STRUCTURAL_ZERO) + sorted(WRONG_DTYPE)
        + sorted(NON_FINITE) + sorted(CUT))
    def test_inspect_refuses_with_data_error(self, case, saved, tmp_path, capsys):
        path = tmp_path / "model.pssnet"
        path.write_bytes(saved)
        if case in HOSTILE:
            rewrite_header(path, HOSTILE[case])
        elif case in WRONG_DTYPE:
            recast_array(path, *WRONG_DTYPE[case])
        elif case in NON_FINITE:
            set_first(path, *NON_FINITE[case])
        elif case in CUT:
            path.write_bytes(saved[:CUT[case]])
        else:
            weight_at_structural_zero(path, STRUCTURAL_ZERO[case])
        if case in CONTAINER_FAULTS:
            with pytest.raises(ContainerError):
                read_container(path, MODEL_MAGIC)
        with pytest.raises(ContainerError):
            load_model(path)
        assert main(["inspect", "--model", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert REASONS.get(case, "") in err

    @staticmethod
    def assert_refused(path, capsys):
        with pytest.raises(ContainerError):
            read_container(path, MODEL_MAGIC)
        assert main(["inspect", "--model", str(path)]) == EXIT_DATA
        assert main(["eval", "--model", str(path), "--preset", "synthetic",
                     "--train-size", "240", "--test-size", "120", "--tasks", "2",
                     "--test-count", "120"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_bytes_after_the_last_array_are_data_error(self, saved, tmp_path, capsys):
        path = tmp_path / "model.pssnet"
        path.write_bytes(saved + b"\0")
        self.assert_refused(path, capsys)

    def test_array_named_twice_is_data_error(self, saved, tmp_path, capsys):
        """A second copy of the last array, header entry and bytes, would
        otherwise load, the later copy silently replacing the first."""
        path = tmp_path / "model.pssnet"
        path.write_bytes(saved)
        _, arrays = read_container(path, MODEL_MAGIC)
        last = arrays[list(arrays)[-1]]
        rewrite_header(path, lambda h: h["arrays"].append(dict(h["arrays"][-1])))
        path.write_bytes(path.read_bytes() + last.tobytes())
        self.assert_refused(path, capsys)
